module Nat = Bignum.Nat

type t = { b : int; p : int; emin : int; emax : int; name : string }

let make ?(name = "custom") ~b ~p ~emin ~emax () =
  if b < 2 then invalid_arg "Format_spec.make: base must be >= 2";
  if p < 1 then invalid_arg "Format_spec.make: precision must be >= 1";
  if emin > emax then invalid_arg "Format_spec.make: emin > emax";
  { b; p; emin; emax; name }

(* IEEE interchange formats, with exponents expressed for the integer
   mantissa: e = biased_exponent - bias - (p - 1). *)
let binary16 = make ~name:"binary16" ~b:2 ~p:11 ~emin:(-24) ~emax:5 ()
let bfloat16 = make ~name:"bfloat16" ~b:2 ~p:8 ~emin:(-133) ~emax:120 ()
let binary32 = make ~name:"binary32" ~b:2 ~p:24 ~emin:(-149) ~emax:104 ()
let binary64 = make ~name:"binary64" ~b:2 ~p:53 ~emin:(-1074) ~emax:971 ()
let binary80 = make ~name:"binary80" ~b:2 ~p:64 ~emin:(-16445) ~emax:16320 ()

let binary128 =
  make ~name:"binary128" ~b:2 ~p:113 ~emin:(-16494) ~emax:16271 ()

let decimal64_like =
  make ~name:"decimal64-like" ~b:10 ~p:16 ~emin:(-398) ~emax:369 ()

let mantissa_limit t = Nat.pow_int t.b t.p
let min_normal_mantissa t = Nat.pow_int t.b (t.p - 1)

let equal a b = a == b || a = b

let pp fmt t =
  Format.fprintf fmt "%s(b=%d, p=%d, e=[%d,%d])" t.name t.b t.p t.emin t.emax
