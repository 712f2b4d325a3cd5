module Nat = Bignum.Nat
module Error = Robust.Error
module Budget = Robust.Budget

(* See Exact.exp_clamp: cap the binary-exponent accumulator; anything at
   the clamp is settled by the fast-reject gate. *)
let exp_clamp = 2_000_000_000

(* Index checks only: this runs on every CLI and daemon input, so it
   allocates nothing. *)
let is_literal s =
  let len = String.length s in
  let i = if len > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  len >= i + 2 && s.[i] = '0' && (s.[i + 1] = 'x' || s.[i + 1] = 'X')

let read_body ?mode fmt s =
  let len = String.length s in
  Budget.check_input_length len;
  let err what = Error (Error.syntax ~input:s what) in
  let pos = ref 0 in
  let neg =
    if len > 0 && (s.[0] = '-' || s.[0] = '+') then begin
      incr pos;
      s.[0] = '-'
    end
    else false
  in
  if
    !pos + 2 > len
    || s.[!pos] <> '0'
    || (s.[!pos + 1] <> 'x' && s.[!pos + 1] <> 'X')
  then err "expected 0x prefix"
  else begin
    pos := !pos + 2;
    let digit c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let mantissa = ref Nat.zero in
    let ndigits = ref 0 in
    let frac_digits = ref 0 in
    let in_frac = ref false in
    let scanning = ref true in
    let bad = ref false in
    while !scanning && !pos < len do
      let c = s.[!pos] in
      if c = '.' then
        if !in_frac then begin
          bad := true;
          scanning := false
        end
        else begin
          in_frac := true;
          incr pos
        end
      else if c = 'p' || c = 'P' then scanning := false
      else begin
        match digit c with
        | Some d ->
          mantissa := Nat.add_int (Nat.shift_left !mantissa 4) d;
          incr ndigits;
          if !in_frac then incr frac_digits;
          incr pos
        | None ->
          bad := true;
          scanning := false
      end
    done;
    if !bad then err "unexpected character"
    else if !ndigits = 0 then err "no hex digits"
    else begin
      (* binary exponent part: mandatory per C17, optional here (p0) *)
      let exp =
        if !pos >= len then Some 0
        else if s.[!pos] = 'p' || s.[!pos] = 'P' then begin
          incr pos;
          let esign =
            if !pos < len && s.[!pos] = '-' then (
              incr pos;
              -1)
            else if !pos < len && s.[!pos] = '+' then (
              incr pos;
              1)
            else 1
          in
          let start = !pos in
          let v = ref 0 in
          while !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' do
            if !v < exp_clamp then
              v := (!v * 10) + (Char.code s.[!pos] - Char.code '0');
            incr pos
          done;
          if !pos = start || !pos <> len then None
          else Some (esign * min !v exp_clamp)
        end
        else None
      in
      match exp with
      | None -> err "malformed binary exponent"
      | Some p ->
        if Nat.is_zero !mantissa then Ok (Fp.Value.Zero neg)
        else begin
          (* value = mantissa * 2^(p - 4*frac_digits) *)
          let e2 = p - (4 * !frac_digits) in
          let bits = Nat.bit_length !mantissa in
          match Exact.decide_extreme ?mode fmt ~neg ~base:2 ~bits ~scale:e2 with
          | Some v -> Ok v
          | None ->
            Budget.check_bignum_bits (bits + abs e2 + 64);
            let u, v =
              if e2 >= 0 then (Nat.shift_left !mantissa e2, Nat.one)
              else (!mantissa, Nat.shift_left Nat.one (-e2))
            in
            Ok (Fp.Softfloat.round_fraction ?mode fmt ~neg u v)
        end
    end
  end
[@@lint.can_raise
  Assert_failure
  (* raising internal: budget checks raise Error.E, the bignum kernels
     assert invariants; the public [read] wraps it under [catch] *)]

let read ?mode fmt s = Result.join (Error.catch (fun () -> read_body ?mode fmt s))

(* [compose] needs its own guard: it runs on [read]'s result, outside
   [read]'s catch region. *)
let read_float ?mode s =
  Result.join
    (Error.catch (fun () ->
         match read ?mode Fp.Format_spec.binary64 s with
         | Error _ as e -> e
         | Ok v -> Ok (Fp.Ieee.compose v)))
