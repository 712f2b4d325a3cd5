(* bdprintd's conversion, on its two routes.  Both give bdprint's
   defaults: the shortest round-tripping decimal of the binary64 read,
   round-to-nearest-even. *)

let mode = Fp.Rounding.To_nearest_even

let convert input =
  match
    if Reader.Hex.is_literal input then
      Reader.Hex.read ~mode Fp.Format_spec.binary64 input
    else Result.map Fp.Ieee.decompose (Reader.Fast.read input)
  with
  | Error _ as e -> e
  | Ok value ->
    Dragon.Printer.print_value ~base:10 ~mode
      ~strategy:Dragon.Scaling.Fast_estimate ~notation:Dragon.Render.Auto
      Fp.Format_spec.binary64 value

(* A hex literal stops the reader's scan at its [x], so it declines
   there.  The table tier declines zeros, which need no digits: they
   get the exact tier's rendering here, while the tier is open. *)
let inline input =
  let x = Reader.Fast.tiers input in
  if Float.is_nan x then None
  else if x = 0. then
    if Dragon.Free_format.tier_open ~base:10 ~mode Fp.Format_spec.binary64
    then Some (Dragon.Render.zero ~neg:(Float.sign_bit x) ())
    else None
  else
    match Dragon.Printer.print_table ~mode ~notation:Dragon.Render.Auto x with
    | "" -> None
    | s -> Some s
