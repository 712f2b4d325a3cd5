(* Facade of the reader library: the exact bignum reader at the top level
   (historic API), the fast binary64 reader under [Fast]. *)

include Exact
module Fast = Fast_reader
module Hex = Hex_reader
