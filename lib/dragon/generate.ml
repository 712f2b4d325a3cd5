module Nat = Bignum.Nat
module Scratch = Bignum.Scratch

type tie = Closer_up | Closer_down | Closer_even

type stopped = {
  digits : int array;
  incremented : bool;
  rest : Nat.t;
  m_plus_n : Nat.t;
}

(* Which implementation served each conversion: the whole loop in native
   machine words, or the pooled in-place Scratch kernels.  (The pure-Nat
   reference path is only reachable by explicit request or as the
   fallback for states that violate the scaling invariant, so it has no
   counter of its own.) *)
let m_fastpath =
  Telemetry.Metrics.counter
    ~help:"Digit-generation conversions that ran entirely in native \
           machine words (all of r, s, m+, m- word-sized)."
    "bdprint_generate_fastpath_total"

let m_scratchpath =
  Telemetry.Metrics.counter
    ~help:"Digit-generation conversions that ran on the pooled in-place \
           bignum scratch kernels."
    "bdprint_generate_scratchpath_total"

(* High-water mark of the per-domain scratch pool, in limbs across its
   four workspaces — how much memory the in-place path retains. *)
let g_pool_limbs =
  Telemetry.Metrics.gauge
    ~help:"High-water capacity of the per-domain digit-loop scratch \
           pool, in 30-bit limbs summed over its workspaces."
    "bdprint_generate_scratch_pool_limbs"

let fastpath_count () = Telemetry.Metrics.value m_fastpath
let scratchpath_count () = Telemetry.Metrics.value m_scratchpath

(* The pure-Nat reference path: forced via BDPRINT_FORCE_PURE=1 (read
   once at startup) or Generate.set_force_pure — the differential anchor
   the fuzz harness compares the kernel paths against. *)
let force_pure_flag =
  Atomic.make
    (match Sys.getenv_opt "BDPRINT_FORCE_PURE" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | _ -> false)

let set_force_pure b = Atomic.set force_pure_flag b
let force_pure () = Atomic.get force_pure_flag

let check_digits ~base digits =
  (* Theorem 1: incrementing never cascades. *)
  assert (Array.for_all (fun d -> 0 <= d && d < base) digits);
  digits

let tie_up tie d c =
  if c < 0 then false
  else if c > 0 then true
  else begin
    match tie with
    | Closer_up -> true
    | Closer_down -> false
    | Closer_even -> d land 1 = 1
  end

(* ------------------------------------------------------------------ *)
(* Pure-Nat reference path.  One pass of the Figure-3 loop: [r],
   [m_plus], [m_minus] arrive pre-multiplied by the base; each iteration
   emits floor(r/s) and carries the remainder, multiplied by the base,
   into the next step.  Tail-recursive so the per-digit state lives in
   arguments — no option boxing or polymorphic comparison per digit. *)

let run_pure ~base ~tie (bnd : Boundaries.t) =
  let low_ok = bnd.low_ok and high_ok = bnd.high_ok in
  let s = bnd.s in
  let rec loop n acc r m_plus m_minus =
    (* resource guard: the loop provably terminates, but an injected
       fault or a corrupted range could keep it spinning — degrade into
       a budget error instead of an unbounded burn *)
    Robust.Budget.check_output_digits n;
    let d, rest = Nat.divmod r s in
    let d = Nat.to_int_exn d in
    let c1 = Nat.compare rest m_minus in
    let tc1 = if low_ok then c1 <= 0 else c1 < 0 in
    let c2 = Nat.compare (Nat.add rest m_plus) s in
    let tc2 = if high_ok then c2 >= 0 else c2 > 0 in
    if not (tc1 || tc2) then
      loop (n + 1) (d :: acc)
        (Nat.mul_int rest base)
        (Nat.mul_int m_plus base)
        (Nat.mul_int m_minus base)
    else begin
      let last, incremented =
        if tc1 && not tc2 then (d, false)
        else if tc2 && not tc1 then (d + 1, true)
        else begin
          (* both candidates read back as v: pick the closer, i.e.
             compare the remainder against half of s *)
          let up = tie_up tie d (Nat.compare (Nat.shift_left rest 1) s) in
          ((if up then d + 1 else d), up)
        end
      in
      Robust.Budget.observe_output_digits n;
      let digits =
        check_digits ~base (Array.of_list (List.rev (last :: acc)))
      in
      { digits; incremented; rest; m_plus_n = m_plus }
    end
  in
  loop 1 [] bnd.r bnd.m_plus bnd.m_minus

(* ------------------------------------------------------------------ *)
(* Per-domain workspace pool shared by the scratch and fast paths.  The
   four Scratch workspaces and the digit buffer grow to the steady-state
   size of the workload and are then reused, so the loop itself
   allocates nothing.  [busy] guards against reentrancy (a conversion
   started from inside a conversion falls back to the pure path rather
   than corrupting the pool). *)

type pool = {
  r : Scratch.t;
  s : Scratch.t;
  mp : Scratch.t;
  mm : Scratch.t;
  tmp : Scratch.t;
  mutable digits : int array;
  mutable busy : bool;
}
[@@lint.domain_safe "one pool per domain via Domain.DLS"]

let pool_key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        r = Scratch.create 48;
        s = Scratch.create 48;
        mp = Scratch.create 48;
        mm = Scratch.create 48;
        tmp = Scratch.create 48;
        digits = Array.make 64 0;
        busy = false;
      })

let digit_put p i d =
  let n = Array.length p.digits in
  if i >= n then
    (begin
       let grown = Array.make (max (2 * n) (i + 1)) 0 in
       Array.blit p.digits 0 grown 0 n;
       p.digits <- grown
     end
     [@lint.alloc_ok "geometric growth: amortized-constant, settles after warm-up"]);
  p.digits.(i) <- d
  [@@lint.no_alloc]

let pool_capacity p =
  Scratch.capacity p.r + Scratch.capacity p.s + Scratch.capacity p.mp
  + Scratch.capacity p.mm + Scratch.capacity p.tmp

(* ------------------------------------------------------------------ *)
(* Scratch path: the Figure-3 loop on the in-place kernels.  The
   denominator is normalized once ([normalize_divisor]) and the whole
   state is scaled by the same power of two — every termination test is
   homogeneous in (r, m+, m-, s), so the scaling changes nothing — which
   lets each iteration divide with a single estimated-quotient step. *)

let run_scratch ~base ~tie (bnd : Boundaries.t) p =
  let shift = Scratch.normalize_divisor p.s bnd.s in
  Scratch.set_nat p.r bnd.r;
  Scratch.set_nat p.mp bnd.m_plus;
  Scratch.set_nat p.mm bnd.m_minus;
  if shift > 0 then begin
    Scratch.shift_left_in_place p.r shift;
    Scratch.shift_left_in_place p.mp shift;
    Scratch.shift_left_in_place p.mm shift
  end;
  let low_ok = bnd.low_ok and high_ok = bnd.high_ok in
  let rec loop n =
    Robust.Budget.check_output_digits n;
    (* same fault point as the pure path's Nat.divmod, so chaos runs
       exercise the kernel path identically *)
    Robust.Faults.trip "nat.divmod";
    let d = Scratch.div_digit p.r p.s in
    let c1 = Scratch.compare p.r p.mm in
    let tc1 = if low_ok then c1 <= 0 else c1 < 0 in
    Scratch.copy_into ~src:p.r ~dst:p.tmp;
    Scratch.add_in_place p.tmp p.mp;
    let c2 = Scratch.compare p.tmp p.s in
    let tc2 = if high_ok then c2 >= 0 else c2 > 0 in
    if not (tc1 || tc2) then begin
      digit_put p (n - 1) d;
      Scratch.mul_int_in_place p.r base;
      Scratch.mul_int_in_place p.mp base;
      Scratch.mul_int_in_place p.mm base;
      loop (n + 1)
    end
    else
      (begin
         let last, incremented =
           if tc1 && not tc2 then (d, false)
           else if tc2 && not tc1 then (d + 1, true)
           else begin
             Scratch.copy_into ~src:p.r ~dst:p.tmp;
             Scratch.shift_left_in_place p.tmp 1;
             let up = tie_up tie d (Scratch.compare p.tmp p.s) in
             ((if up then d + 1 else d), up)
           end
         in
         digit_put p (n - 1) last;
         Robust.Budget.observe_output_digits n;
         let digits = check_digits ~base (Array.sub p.digits 0 n) in
         let rest = Nat.shift_right (Scratch.to_nat p.r) shift in
         let m_plus_n = Nat.shift_right (Scratch.to_nat p.mp) shift in
         { digits; incremented; rest; m_plus_n }
       end
       [@lint.alloc_ok "one-time exit-path result construction"])
  in
  loop 1
  [@@lint.no_alloc]

(* ------------------------------------------------------------------ *)
(* Word-sized fast path: when r, s, m+ and m- all fit comfortably in a
   native int the whole loop runs on machine words.  Bounds (see [run]):
   s < 2^56 and m± < 2^58 guarantee every intermediate stays below
   2^62 — after the first division all re-multiplied quantities are
   bounded by s, so rest*B < 2^62, m±*B < 2^62 and rest + m± < 2^59. *)

let run_fast ~base ~tie ~low_ok ~high_ok ~r ~s ~mp ~mm p =
  let rec loop n r mp mm =
    Robust.Budget.check_output_digits n;
    Robust.Faults.trip "nat.divmod";
    let d = r / s in
    let rest = r - (d * s) in
    let c1 = Int.compare rest mm in
    let tc1 = if low_ok then c1 <= 0 else c1 < 0 in
    let c2 = Int.compare (rest + mp) s in
    let tc2 = if high_ok then c2 >= 0 else c2 > 0 in
    if not (tc1 || tc2) then begin
      digit_put p (n - 1) d;
      loop (n + 1) (rest * base) (mp * base) (mm * base)
    end
    else
      (begin
         let last, incremented =
           if tc1 && not tc2 then (d, false)
           else if tc2 && not tc1 then (d + 1, true)
           else begin
             let up = tie_up tie d (Int.compare (2 * rest) s) in
             ((if up then d + 1 else d), up)
           end
         in
         digit_put p (n - 1) last;
         Robust.Budget.observe_output_digits n;
         let digits = check_digits ~base (Array.sub p.digits 0 n) in
         { digits; incremented; rest = Nat.of_int rest; m_plus_n = Nat.of_int mp }
       end
       [@lint.alloc_ok "one-time exit-path result construction"])
  in
  loop 1 r mp mm
  [@@lint.no_alloc]

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let fast_s_limit = 1 lsl 56
let fast_m_limit = 1 lsl 58

let release p =
  p.busy <- false;
  if Telemetry.Metrics.enabled () then
    Telemetry.Metrics.max_gauge g_pool_limbs (pool_capacity p)

let run ~base ~tie (bnd : Boundaries.t) =
  if force_pure () then run_pure ~base ~tie bnd
  else begin
    let p = Domain.DLS.get pool_key in
    if p.busy then run_pure ~base ~tie bnd
    else begin
      p.busy <- true;
      match
        match Nat.to_int_opt bnd.s with
        | Some s when s > 0 && s < fast_s_limit -> (
          match
            (Nat.to_int_opt bnd.r, Nat.to_int_opt bnd.m_plus,
             Nat.to_int_opt bnd.m_minus)
          with
          | Some r, Some mp, Some mm when mp < fast_m_limit && mm < fast_m_limit
            ->
            if Telemetry.Metrics.enabled () then
              Telemetry.Metrics.incr m_fastpath;
            run_fast ~base ~tie ~low_ok:bnd.low_ok ~high_ok:bnd.high_ok ~r ~s
              ~mp ~mm p
          | _ ->
            if Telemetry.Metrics.enabled () then
              Telemetry.Metrics.incr m_scratchpath;
            run_scratch ~base ~tie bnd p)
        | _ ->
          if Telemetry.Metrics.enabled () then
            Telemetry.Metrics.incr m_scratchpath;
          run_scratch ~base ~tie bnd p
      with
      | result ->
        release p;
        result
      | exception Scratch.Quotient_overflow ->
        (* the state violates the scaling invariant (quotient not a
           digit): answer it on the reference path, which handles any
           quotient *)
        release p;
        run_pure ~base ~tie bnd
      | exception e ->
        release p;
        raise e
    end
  end

let free ~base ~tie bnd = (run ~base ~tie bnd).digits

let free_stopped ~base ~tie bnd = run ~base ~tie bnd

