type t = {
  max_input_length : int;
  max_exponent : int;
  max_output_digits : int;
  max_bignum_bits : int;
}

let default =
  {
    max_input_length = 65_536;
    max_exponent = 100_000;
    max_output_digits = 20_000;
    max_bignum_bits = 2_000_000;
  }

let unlimited =
  {
    max_input_length = max_int;
    max_exponent = max_int;
    max_output_digits = max_int;
    max_bignum_bits = max_int;
  }

type deadline = { expires_at : float; started_at : float; grant_ms : int }

(* The ambient state is domain-local: every worker domain of the service
   layer carries its own budget and per-request deadline, so concurrent
   requests cannot clobber each other's caps. *)
type slot = { mutable budget : t; mutable deadline : deadline option }
[@@lint.domain_safe "one slot per domain via Domain.DLS"]

let slot = Domain.DLS.new_key (fun () -> { budget = default; deadline = None })

let get () = (Domain.DLS.get slot).budget
let set b = (Domain.DLS.get slot).budget <- b

let with_budget b f =
  let s = Domain.DLS.get slot in
  let saved = s.budget in
  s.budget <- b;
  Fun.protect ~finally:(fun () -> s.budget <- saved) f

let now () = Unix.gettimeofday ()

let deadline_after ~ms =
  let t = now () in
  { expires_at = t +. (float_of_int ms /. 1000.); started_at = t; grant_ms = ms }

let set_deadline d = (Domain.DLS.get slot).deadline <- d
let get_deadline () = (Domain.DLS.get slot).deadline

let deadline_what = "deadline-ms"

let expired d = now () >= d.expires_at

let deadline_error d =
  let elapsed_ms =
    max 1 (int_of_float (ceil ((now () -. d.started_at) *. 1000.)))
  in
  Error.budget ~what:deadline_what ~limit:d.grant_ms ~got:elapsed_ms
[@@lint.alloc_ok
  "cold path: runs once, to build the structured error it raises with"]

let check_deadline () =
  match (Domain.DLS.get slot).deadline with
  | None -> ()
  | Some d -> if expired d then Error.raise_ (deadline_error d)

let with_deadline ~ms f =
  let s = Domain.DLS.get slot in
  let saved = s.deadline in
  s.deadline <- Some (deadline_after ~ms);
  Fun.protect ~finally:(fun () -> s.deadline <- saved) f

let check what limit got =
  if got > limit then Error.raise_ (Error.budget ~what ~limit ~got)

(* Budget-consumption histograms: how much of each capped resource the
   pipeline actually asks for, recorded at the check sites (telemetry
   must see the request even when the check then rejects it).  Gated on
   the global telemetry switch — disabled cost is one atomic load and a
   branch on top of the existing check.

   [output digits] is the exception: its check runs once per digit-loop
   iteration with a monotonically growing count, so observing every
   call would record each conversion once per digit.  The digit loops
   instead report their final count once through
   {!observe_output_digits}. *)

let h_input_length =
  Telemetry.Metrics.histogram
    ~help:"Input text length in bytes, per parse request."
    ~bounds:[| 8; 16; 24; 32; 48; 64; 128; 256; 1024; 4096; 65536 |]
    "bdprint_budget_input_length_bytes"

let h_exponent =
  Telemetry.Metrics.histogram
    ~help:"Magnitude of decimal scale exponents turned into powers."
    ~bounds:[| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 10_000; 100_000 |]
    "bdprint_budget_scale_exponent"

let h_bignum_bits =
  Telemetry.Metrics.histogram
    ~help:"Bit size of constructed bignum powers and scaled operands."
    ~bounds:
      [| 64; 128; 256; 512; 1024; 2048; 4096; 16_384; 65_536; 1_048_576 |]
    "bdprint_budget_bignum_bits"

let h_output_digits =
  Telemetry.Metrics.histogram
    ~help:"Digits emitted per conversion (digit-loop iterations)."
    ~bounds:[| 1; 2; 4; 6; 8; 10; 12; 14; 16; 17; 18; 20; 24; 32; 64; 256;
               1024; 8192 |]
    "bdprint_budget_output_digits"

let observe_input_length n =
  if Telemetry.Metrics.enabled () then Telemetry.Metrics.observe h_input_length n

let observe_output_digits n =
  if Telemetry.Metrics.enabled () then
    Telemetry.Metrics.observe h_output_digits n

(* Every budget check site doubles as a cooperative deadline check: the
   digit loops, the scaling layer and the reader already call these at
   each unit of work, which is exactly the granularity a per-request
   deadline needs.  With no deadline set the extra cost is one
   domain-local load and a branch. *)
let check_input_length n =
  check_deadline ();
  observe_input_length n;
  check "input length" (get ()).max_input_length n

let check_exponent n =
  check_deadline ();
  if Telemetry.Metrics.enabled () then Telemetry.Metrics.observe h_exponent (abs n);
  check "scale exponent" (get ()).max_exponent (abs n)

let check_output_digits n =
  check_deadline ();
  check "output digits" (get ()).max_output_digits n

let check_bignum_bits n =
  check_deadline ();
  if Telemetry.Metrics.enabled () then Telemetry.Metrics.observe h_bignum_bits n;
  check "bignum bits" (get ()).max_bignum_bits n

let input_length_ok n =
  let s = Domain.DLS.get slot in
  n <= s.budget.max_input_length
  && match s.deadline with None -> true | Some d -> not (expired d)
