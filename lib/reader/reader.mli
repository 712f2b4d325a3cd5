(** Accurate floating-point input.

    The top-level API is the exact bignum reader (see {!Exact}); the
    fast binary64 reader (Clinger's exact tier, Lemire's product) lives
    under {!Fast}. *)

include module type of struct
  include Exact
end

module Fast : module type of Fast_reader
module Hex : module type of Hex_reader
