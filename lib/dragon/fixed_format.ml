module Nat = Bignum.Nat
module Bigint = Bignum.Bigint
module Ratio = Bignum.Ratio
module Format_spec = Fp.Format_spec
module Value = Fp.Value

type request = Absolute of int | Relative of int

type digit = Digit of int | Hash

type t = { digits : digit array; k : int }

let significant_digits t =
  Array.fold_left
    (fun acc d -> match d with Digit _ -> acc + 1 | Hash -> acc)
    0 t.digits

let to_ratio ~base t =
  let n = Array.length t.digits in
  let ints = Array.map (function Digit d -> d | Hash -> 0) t.digits in
  Ratio.mul
    (Ratio.of_bigint (Bigint.of_nat (Nat.of_base_digits ~base ints)))
    (Ratio.pow (Ratio.of_int base) (t.k - n))

let equal a b = a.k = b.k && a.digits = b.digits

let pp fmt t =
  Format.fprintf fmt "0.%se%d"
    (String.concat ""
       (Array.to_list
          (Array.map
             (function Digit d -> string_of_int d | Hash -> "#")
             t.digits)))
    t.k

(* Correctly rounded output at absolute position [j]. *)
let absolute ~base ~mode ~tie (fmt : Format_spec.t) (v : Value.finite) j =
  let bnd0 = Boundaries.of_finite ~mode fmt v in
  (* Express the half quantum base^j / 2 over the common denominator.
     Table 1 makes s even, so s/2 is exact; for j < 0 first rescale
     everything by base^-j so the power stays integral. *)
  let s_half = Nat.shift_right bnd0.s 1 in
  let bnd0, m_half =
    if j >= 0 then (bnd0, Nat.mul s_half (Nat.pow_int base j))
    else (Boundaries.scale_all bnd0 (Nat.pow_int base (-j)), s_half)
  in
  if Nat.compare bnd0.r m_half <= 0 then begin
    (* v <= base^j / 2: the whole value sits at or below half a quantum,
       so the output is a single digit at position j — 0 or 1 unit. *)
    let c = Nat.compare bnd0.r m_half in
    let up =
      if c < 0 then false
      else begin
        match tie with
        | Generate.Closer_up -> true
        | Generate.Closer_down | Generate.Closer_even -> false
        (* the even candidate of {0, base^j} is 0 *)
      end
    in
    { digits = [| Digit (if up then 1 else 0) |]; k = j + 1 }
  end
  else begin
    (* Widen each side of the range to the half quantum where it exceeds
       the float midpoint; a side that got widened may be met exactly
       (correct rounding admits an error of exactly half a quantum). *)
    let expand m ok =
      if Nat.compare m_half m >= 0 then (m_half, true) else (m, ok)
    in
    let m_plus, high_ok = expand bnd0.m_plus bnd0.high_ok in
    let m_minus, low_ok = expand bnd0.m_minus bnd0.low_ok in
    let bnd = { bnd0 with m_plus; m_minus; low_ok; high_ok } in
    let k, state = Scaling.scale_on_high ~base bnd in
    let stop = Generate.free_stopped ~base ~tie state in
    let n = Array.length stop.digits in
    let total = k - j in
    assert (n <= total);
    let digits = Array.make total Hash in
    Array.iteri (fun i d -> digits.(i) <- Digit d) stop.digits;
    (* Classify the tail positions n+1 .. total (paper: zeros while still
       significant, then # marks).  Position m is insignificant when
       bumping the digit before it keeps the number within the range:
       V + base^(k-m+1) <= high, which over the common denominator reads
       inc*s*base^t + s <= (r_n + m+_n) * base^t with t = m - n - 1. *)
    (* Track inc*s*base^t and (r_n + m+_n)*base^t incrementally — one
       single-limb multiply per side per position instead of rebuilding
       both products from scratch each time. *)
    let lhs_t = ref (if stop.incremented then state.s else Nat.zero) in
    let rhs_t = ref (Nat.add stop.rest stop.m_plus_n) in
    let insignificant () =
      let c = Nat.compare (Nat.add !lhs_t state.s) !rhs_t in
      if high_ok then c <= 0 else c < 0
    in
    let stop_zeros = ref false in
    for m = n to total - 1 do
      if not !stop_zeros then
        if insignificant () then stop_zeros := true
        else begin
          digits.(m) <- Digit 0;
          lhs_t := Nat.mul_int !lhs_t base;
          rhs_t := Nat.mul_int !rhs_t base
        end
    done;
    { digits; k }
  end

let rec relative ~base ~mode ~tie fmt (v : Value.finite) i ~attempts ~guess =
  let result = absolute ~base ~mode ~tie fmt v (guess - i) in
  if result.k = guess || attempts = 0 then result
  else relative ~base ~mode ~tie fmt v i ~attempts:(attempts - 1) ~guess:result.k

(* Cheap ceil(log_base v) from the mantissa and exponent, within one of
   the true value — the guard that lets a position request be vetted
   against the budget before any bignum scaling work. *)
let estimate_k ~base (fmt : Format_spec.t) (v : Value.finite) =
  let m, nbits = Nat.frexp v.f in
  let log2b =
    if fmt.b = 2 then 1. else log (float_of_int fmt.b) /. log 2.
  in
  let log2_v =
    (log m /. log 2.) +. float_of_int nbits +. (float_of_int v.e *. log2b)
  in
  int_of_float
    (Float.ceil ((log2_v /. (log (float_of_int base) /. log 2.)) -. 1e-10))

let check_request ~base request =
  if base < 2 || base > 36 then
    Robust.Error.raise_
      (Robust.Error.range ~what:"base"
         (Printf.sprintf "%d not in 2..36" base));
  match request with
  | Relative i when i < 1 ->
    Robust.Error.raise_
      (Robust.Error.range ~what:"relative digits" (Printf.sprintf "%d < 1" i))
  | Absolute _ | Relative _ -> ()

(* [Digit d] for a decimal digit, from statically allocated values so
   a table-tier hit allocates no boxes. *)
let decimal_digit = function
  | 0 -> Digit 0 | 1 -> Digit 1 | 2 -> Digit 2 | 3 -> Digit 3
  | 4 -> Digit 4 | 5 -> Digit 5 | 6 -> Digit 6 | 7 -> Digit 7
  | 8 -> Digit 8 | 9 -> Digit 9 | d -> Digit d

let vet ~base fmt (v : Value.finite) request =
  match request with
  | Absolute j ->
    let k = estimate_k ~base fmt v in
    if j >= k + 3 then
      (* the whole value sits strictly below half the quantum: the
         rounded output is a single zero digit at position j, decided
         without scaling anything by base^|j| *)
      Some { digits = [| Digit 0 |]; k = j + 1 }
    else begin
      (* [k - j] is within one of the digit span the conversion will
         materialize; vet it against the budget before the bignum work *)
      Robust.Budget.check_output_digits (k - j);
      None
    end
  | Relative i ->
    Robust.Budget.check_output_digits i;
    None

(* The table tier's position rule (see {!Fastpath.convert_fixed}). *)
let table_tier buf ~base ~mode fmt (v : Value.finite) request =
  let f =
    if Free_format.tier_open ~base ~mode fmt then Free_format.tier_mantissa v
    else 0
  in
  if f = 0 then -1
  else begin
    let relative = match request with Relative _ -> true | Absolute _ -> false
    and pos = match request with Relative i -> i | Absolute j -> j in
    Free_format.fixed_tier buf ~mode fmt ~f ~e:v.e ~relative ~pos
  end

let exact ~base ~mode ~tie fmt (v : Value.finite) = function
  | Absolute j -> absolute ~base ~mode ~tie fmt v j
  | Relative i ->
    (* The position of the first digit can shift when the quantum
       expansion rounds the value up to the next power of the base
       (paper, end of Section 4), so estimate from the unexpanded
       range and refine. *)
    let bnd = Boundaries.of_finite ~mode fmt v in
    let k0, _ = Scaling.scale_on_high ~base bnd in
    relative ~base ~mode ~tie fmt v i ~attempts:2 ~guess:k0

let convert_exn ?(base = 10) ?(mode = Fp.Rounding.To_nearest_even)
    ?(tie = Generate.Closer_up) fmt (v : Value.finite) request =
  check_request ~base request;
  match vet ~base fmt v request with
  | Some t -> t
  | None ->
    let buf = Fastpath.lend Fastpath.max_digits in
    let r = table_tier buf ~base ~mode fmt v request in
    if r < 0 then begin
      Fastpath.give_back buf;
      exact ~base ~mode ~tie fmt v request
    end
    else begin
      let n = Fastpath.digit_count r and k = Fastpath.point r in
      let total = match request with Relative i -> i | Absolute j -> k - j in
      let digits = Array.make total Hash in
      for i = 0 to n - 1 do
        digits.(i) <- decimal_digit (Char.code (Bytes.get buf i) - 48)
      done;
      Fastpath.give_back buf;
      Robust.Budget.observe_output_digits n;
      Array.fill digits n (Fastpath.zero_count r) (Digit 0);
      { digits; k }
    end

let convert ?base ?mode ?tie fmt (v : Value.finite) request =
  Robust.Error.catch (fun () -> convert_exn ?base ?mode ?tie fmt v request)
