(** bdprintd endpoint addresses: the one grammar that [bdprintd
    --listen] and [bdprint --connect] accept, and its resolution to a
    socket address. *)

type t =
  | Tcp of string * int  (** host, port *)
  | Unix_path of string  (** Unix-domain socket at this path *)

val parse : ?listen:bool -> string -> (t, Robust.Error.t) result
(** [HOST:PORT], [:PORT] and bare [PORT] (host defaulting to
    127.0.0.1), or [unix:PATH]; blanks around the address are ignored.
    A port is 1..65535; with [listen] (default [false]) port 0 is
    accepted too, and binds an ephemeral port.  Malformed input is a
    typed [Range] error (exit code 2), reported before any socket is
    touched. *)

val to_string : t -> string
(** The address in the grammar {!parse} reads. *)

val sockaddr : t -> (Unix.sockaddr, string) result
(** The socket address to bind or connect: a TCP host is a dotted quad
    or a name looked up with [gethostbyname].  [Error] says which host
    did not resolve. *)
