(* Every text conversion, and its bignum-free first step. *)

module Printer = Dragon.Printer

type request = Shortest | Position of Dragon.Fixed_format.request | Hex

let ok = function Ok x -> x | Error e -> Robust.Error.raise_ e

(* The exact or hex reader's value, timed as the [parse] stage. *)
let read_value ?mode format ~hex input =
  let t0 = Telemetry.Tracing.start () in
  let r =
    if hex then Reader.Hex.read ?mode format input
    else Reader.read ?mode format input
  in
  Telemetry.Tracing.finish Telemetry.Tracing.Parse t0;
  ok r

(* A binary32 or binary16 value keeps its format's rounding range, so
   it is printed from its decomposition.  The settings stay options
   from the caller to the printer, so a line pays no box for them. *)
let convert ?base ?mode ?(format = Fp.Format_spec.binary64) ?strategy
    ?notation ?(request = Shortest) input =
  Robust.Error.catch (fun () ->
      let hex = Reader.Hex.is_literal input in
      if Fp.Format_spec.equal format Fp.Format_spec.binary64 then begin
        let x =
          match mode with
          | (None | Some Fp.Rounding.To_nearest_even) when not hex ->
            let t0 = Telemetry.Tracing.start () in
            let r = Reader.Fast.read input in
            Telemetry.Tracing.finish Telemetry.Tracing.Parse t0;
            ok r
          | _ -> Fp.Ieee.compose (read_value ?mode format ~hex input)
        in
        match request with
        | Shortest -> Printer.print ?base ?mode ?strategy ?notation x
        | Position p -> Printer.print_fixed ?base ?mode ?notation p x
        | Hex -> Printer.print_hex x
      end
      else begin
        match (request, read_value ?mode format ~hex input) with
        | Shortest, value ->
          Printer.print_value_exn ?base ?mode ?strategy ?notation format value
        | Hex, value -> Printer.print_hex (Fp.Ieee.compose value)
        | Position _, Fp.Value.Zero neg -> Dragon.Render.zero ~neg ()
        | Position _, Fp.Value.Inf neg -> Dragon.Render.infinity ~neg ()
        | Position _, Fp.Value.Nan -> Dragon.Render.nan
        | Position p, Fp.Value.Finite v ->
          Dragon.Render.fixed ?notation ~neg:v.neg
            ~base:(Option.value base ~default:10)
            (Dragon.Fixed_format.convert_exn ?base ?mode format v p)
      end)

(* A hex literal stops the reader's scan at its [x], so it declines
   there.  The table tier declines zeros, which need no digits: they
   get the exact tier's rendering here, while the tier is open. *)
let inline input =
  let mode = Fp.Rounding.To_nearest_even in
  let x = Reader.Fast.tiers input in
  if Float.is_nan x then None
  else if x = 0. then
    if Dragon.Free_format.tier_open ~base:10 ~mode Fp.Format_spec.binary64
    then Some (Dragon.Render.zero ~neg:(Float.sign_bit x) ())
    else None
  else
    match Printer.print_table ~mode ~notation:Dragon.Render.Auto x with
    | "" -> None
    | s -> Some s
