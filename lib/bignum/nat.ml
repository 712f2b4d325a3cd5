(* Little-endian arrays of 30-bit limbs.  The invariant is that the highest
   limb is non-zero; the empty array represents zero.  Base 2^30 keeps every
   limb product below 2^60, leaving two bits of headroom for carries within
   a native 63-bit int. *)

type t = int array

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

let zero : t = [||]
let one : t = [| 1 |] [@@lint.domain_safe "write-once constant, never mutated"]
let two : t = [| 2 |] [@@lint.domain_safe "write-once constant, never mutated"]

let is_zero a = Array.length a = 0
let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let check_invariant a =
  let len = Array.length a in
  (len = 0 || a.(len - 1) <> 0)
  && Array.for_all (fun limb -> 0 <= limb && limb < base) a

(* Strip high zero limbs of a freshly computed array. *)
let normalize (a : int array) : t =
  let len = ref (Array.length a) in
  while !len > 0 && a.(!len - 1) = 0 do
    decr len
  done;
  if !len = Array.length a then a else Array.sub a 0 !len

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative"
  else if n = 0 then zero
  else if n < base then [| n |]
  else if n < base * base then [| n land mask; n lsr base_bits |]
  else [| n land mask; (n lsr base_bits) land mask; n lsr (2 * base_bits) |]

let to_int_or ~default a =
  match Array.length a with
  | 0 -> 0
  | 1 -> a.(0)
  | 2 -> (a.(1) lsl base_bits) lor a.(0)
  | 3 when a.(2) < 1 lsl (Sys.int_size - 1 - (2 * base_bits)) ->
    (* keep the result strictly within the non-negative int range *)
    (a.(2) lsl (2 * base_bits)) lor (a.(1) lsl base_bits) lor a.(0)
  | _ -> default

let to_int_opt a =
  let i = to_int_or ~default:(-1) a in
  if i < 0 then None else Some i

let to_int_exn a =
  let i = to_int_or ~default:(-1) a in
  if i < 0 then failwith "Nat.to_int_exn: overflow" else i

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec loop i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else loop (i - 1)
    in
    loop (la - 1)

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let t =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- t land mask;
    carry := t lsr base_bits
  done;
  r.(lr - 1) <- !carry;
  normalize r

let add_int a n =
  if n < 0 then invalid_arg "Nat.add_int: negative" else add a (of_int n)

let succ a = add_int a 1

let sub a b =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let t = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if t < 0 then begin
      r.(i) <- t + base;
      borrow := 1
    end
    else begin
      r.(i) <- t;
      borrow := 0
    end
  done;
  normalize r

let pred a =
  if is_zero a then invalid_arg "Nat.pred: zero" else sub a one

let mul_int a m =
  if m < 0 || m >= base then invalid_arg "Nat.mul_int: out of limb range";
  if m = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) * m) + !carry in
      r.(i) <- t land mask;
      carry := t lsr base_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let mul_schoolbook a b =
  if is_zero a || is_zero b then zero
  else begin
    let la = Array.length a and lb = Array.length b in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- t land mask;
          carry := t lsr base_bits
        done;
        (* Propagate the final carry; it cannot run past the array because
           the product of the remaining prefixes is bounded by base^(i+lb). *)
        let j = ref (i + lb) in
        let c = ref !carry in
        while !c <> 0 do
          let t = r.(!j) + !c in
          r.(!j) <- t land mask;
          c := t lsr base_bits;
          incr j
        done
      end
    done;
    normalize r
  end

let karatsuba_threshold = 72

(* Split [a] at limb [m] into (low, high). *)
let split_at a m =
  let la = Array.length a in
  if la <= m then (a, zero)
  else (normalize (Array.sub a 0 m), Array.sub a m (la - m))

(* r := r + (a << 30*limbs), in place; r is long enough by construction. *)
let add_into r a limbs =
  let la = Array.length a in
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let t = r.(i + limbs) + a.(i) + !carry in
    r.(i + limbs) <- t land mask;
    carry := t lsr base_bits
  done;
  let j = ref (la + limbs) in
  while !carry <> 0 do
    let t = r.(!j) + !carry in
    r.(!j) <- t land mask;
    carry := t lsr base_bits;
    incr j
  done

let rec mul_karatsuba a b =
  let la = Array.length a and lb = Array.length b in
  if la < 2 || lb < 2 then mul_schoolbook a b
  else begin
    let m = (max la lb + 1) / 2 in
    let a0, a1 = split_at a m in
    let b0, b1 = split_at b m in
    let z0 = mul_dispatch a0 b0 in
    let z2 = mul_dispatch a1 b1 in
    let z1 = sub (mul_dispatch (add a0 a1) (add b0 b1)) (add z0 z2) in
    (* assemble z0 + (z1 << m) + (z2 << 2m) in one buffer; the partial
       sums never exceed the final product, which fits la + lb limbs *)
    let res = Array.make (la + lb + 1) 0 in
    add_into res z0 0;
    add_into res z1 m;
    add_into res z2 (2 * m);
    normalize res
  end

and mul_dispatch a b =
  if Array.length a < karatsuba_threshold || Array.length b < karatsuba_threshold
  then mul_schoolbook a b
  else mul_karatsuba a b

let mul = mul_dispatch

let shift_left a k =
  if k < 0 then invalid_arg "Nat.shift_left: negative"
  else if is_zero a || k = 0 then a
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let t = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- t land mask;
        carry := t lsr base_bits
      done;
      r.(la + limbs) <- !carry
    end;
    normalize r
  end

let shift_right a k =
  if k < 0 then invalid_arg "Nat.shift_right: negative"
  else if is_zero a || k = 0 then a
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if bits = 0 then Array.blit a limbs r 0 lr
      else begin
        for i = 0 to lr - 1 do
          let lo = a.(i + limbs) lsr bits in
          let hi =
            if i + limbs + 1 < la then
              (a.(i + limbs + 1) lsl (base_bits - bits)) land mask
            else 0
          in
          r.(i) <- lo lor hi
        done
      end;
      normalize r
    end
  end

let bits_of_limb limb =
  let rec loop n v = if v = 0 then n else loop (n + 1) (v lsr 1) in
  loop 0 limb

let bit_length a =
  let la = Array.length a in
  if la = 0 then 0 else ((la - 1) * base_bits) + bits_of_limb a.(la - 1)

let test_bit a i =
  if i < 0 then invalid_arg "Nat.test_bit: negative index";
  let limb = i / base_bits and bit = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr bit) land 1 = 1

let of_int64_unsigned bits =
  let low30 n = Int64.to_int (Int64.logand n 0x3FFFFFFFL) in
  normalize
    [|
      low30 bits;
      low30 (Int64.shift_right_logical bits 30);
      Int64.to_int (Int64.shift_right_logical bits 60);
    |]

let to_int64_unsigned_opt a =
  if bit_length a > 64 then None
  else begin
    let limb i = if i < Array.length a then Int64.of_int a.(i) else 0L in
    Some
      (Int64.logor (limb 0)
         (Int64.logor
            (Int64.shift_left (limb 1) 30)
            (Int64.shift_left (limb 2) 60)))
  end


let divmod_int a b =
  if b <= 0 || b >= base then invalid_arg "Nat.divmod_int: out of limb range";
  let la = Array.length a in
  if la = 0 then (zero, 0)
  else begin
    let q = Array.make la 0 in
    let r = ref 0 in
    for i = la - 1 downto 0 do
      let t = (!r lsl base_bits) lor a.(i) in
      q.(i) <- t / b;
      r := t mod b
    done;
    (normalize q, !r)
  end

(* Knuth TAOCP vol. 2, Algorithm 4.3.1 D, on 30-bit limbs. *)
let divmod_knuth u v =
  let n = Array.length v in
  let shift = base_bits - bits_of_limb v.(n - 1) in
  let vn = shift_left v shift in
  assert (Array.length vn = n);
  let lu = Array.length u in
  (* Working copy of u with room for the virtual high limb. *)
  let un =
    let s = shift_left u shift in
    let a = Array.make (lu + 1) 0 in
    Array.blit s 0 a 0 (Array.length s);
    a
  in
  let m = lu - n in
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let top = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
    let qhat = ref (top / vn.(n - 1)) in
    let rhat = ref (top mod vn.(n - 1)) in
    let adjust = ref true in
    while !adjust do
      if
        !qhat >= base
        || (n >= 2
            && !qhat * vn.(n - 2)
               > (!rhat lsl base_bits) lor un.(j + n - 2))
      then begin
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then adjust := false
      end
      else adjust := false
    done;
    (* Multiply-subtract qhat * vn from un[j .. j+n]. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr base_bits;
      let t = un.(j + i) - (p land mask) - !borrow in
      if t < 0 then begin
        un.(j + i) <- t + base;
        borrow := 1
      end
      else begin
        un.(j + i) <- t;
        borrow := 0
      end
    done;
    let t = un.(j + n) - !carry - !borrow in
    if t < 0 then begin
      (* qhat was one too large: add the divisor back. *)
      un.(j + n) <- t + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s = un.(j + i) + vn.(i) + !c in
        un.(j + i) <- s land mask;
        c := s lsr base_bits
      done;
      un.(j + n) <- (un.(j + n) + !c) land mask
    end
    else un.(j + n) <- t;
    q.(j) <- !qhat
  done;
  let r = normalize (Array.sub un 0 n) in
  (normalize q, shift_right r shift)

let divmod a b =
  Robust.Faults.trip "nat.divmod";
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

let rec pow b k =
  Robust.Faults.trip "nat.pow";
  if k < 0 then invalid_arg "Nat.pow: negative exponent"
  else if k = 0 then one
  else begin
    let half = pow b (k / 2) in
    let sq = mul half half in
    if k land 1 = 0 then sq else mul sq b
  end

(* Powers of two are shifts; powers of other bases go through binary
   exponentiation. *)
let pow_int b k =
  if b = 2 && k >= 0 then shift_left one k
  else if b = 4 && k >= 0 then shift_left one (2 * k)
  else if b = 8 && k >= 0 then shift_left one (3 * k)
  else if b = 16 && k >= 0 then shift_left one (4 * k)
  else if b = 32 && k >= 0 then shift_left one (5 * k)
  else pow (of_int b) k

let rec gcd a b = if is_zero b then a else gcd b (snd (divmod a b))

(* Integer square root by Newton's method.  The iteration
   x' = (x + n/x) / 2 decreases monotonically to floor(sqrt n) once it is
   at or above it, which the initial power-of-two guess guarantees. *)
let isqrt n =
  if is_zero n then (zero, zero)
  else begin
    let x = ref (shift_left one ((bit_length n + 1) / 2)) in
    let continue = ref true in
    while !continue do
      let q, _ = divmod n !x in
      let next = shift_right (add !x q) 1 in
      if compare next !x < 0 then x := next else continue := false
    done;
    (!x, sub n (mul !x !x))
  end

let frexp a =
  let nbits = bit_length a in
  if nbits = 0 then (0., 0)
  else begin
    let keep = min nbits 60 in
    let top = shift_right a (nbits - keep) in
    let m = float_of_int (to_int_exn top) in
    (ldexp m (-keep), nbits)
  end

let to_float a =
  let m, e = frexp a in
  ldexp m e

(* Radix conversion.  Work in the largest power of the radix that fits a
   limb so the expensive bignum divisions are amortised over several
   digits. *)

let digit_chunk radix =
  let rec loop count p =
    if p * radix < base then loop (count + 1) (p * radix) else (count, p)
  in
  loop 1 radix

let of_base_digits ~base:radix digits =
  if radix < 2 || radix > 36 then invalid_arg "Nat.of_base_digits: base";
  let chunk_len, chunk_pow = digit_chunk radix in
  let acc = ref zero in
  let pending = ref 0 and pending_len = ref 0 in
  let flush () =
    if !pending_len > 0 then begin
      let scale = ref 1 in
      for _ = 1 to !pending_len do
        scale := !scale * radix
      done;
      acc := add_int (mul_int !acc !scale) !pending;
      pending := 0;
      pending_len := 0
    end
  in
  Array.iter
    (fun d ->
      if d < 0 || d >= radix then invalid_arg "Nat.of_base_digits: digit";
      pending := (!pending * radix) + d;
      incr pending_len;
      if !pending_len = chunk_len then begin
        acc := add_int (mul_int !acc chunk_pow) !pending;
        pending := 0;
        pending_len := 0
      end)
    digits;
  flush ();
  !acc

let to_base_digits ~base:radix a =
  if radix < 2 || radix > 36 then invalid_arg "Nat.to_base_digits: base";
  if is_zero a then [| 0 |]
  else begin
    let chunk_len, chunk_pow = digit_chunk radix in
    let chunks = ref [] in
    let rest = ref a in
    while not (is_zero !rest) do
      let q, r = divmod_int !rest chunk_pow in
      chunks := r :: !chunks;
      rest := q
    done;
    match !chunks with
    | [] -> assert false
    | first :: others ->
      let buf = ref [] in
      let push_chunk ~pad c =
        let digits = Array.make chunk_len 0 in
        let v = ref c in
        for i = chunk_len - 1 downto 0 do
          digits.(i) <- !v mod radix;
          v := !v / radix
        done;
        let start =
          if pad then 0
          else begin
            let s = ref 0 in
            while !s < chunk_len - 1 && digits.(!s) = 0 do
              incr s
            done;
            !s
          end
        in
        for i = chunk_len - 1 downto start do
          buf := digits.(i) :: !buf
        done
      in
      List.iter (push_chunk ~pad:true) (List.rev others);
      push_chunk ~pad:false first;
      Array.of_list !buf
  end

let digit_char d = "0123456789abcdefghijklmnopqrstuvwxyz".[d]

let to_string_base ~base:radix a =
  let digits = to_base_digits ~base:radix a in
  String.init (Array.length digits) (fun i -> digit_char digits.(i))

let digit_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'z' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'Z' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Nat.of_string: bad digit"

let to_string a = to_string_base ~base:10 a

let of_string_base ~base:radix s =
  if String.length s = 0 then invalid_arg "Nat.of_string_base: empty";
  let digits = ref [] in
  String.iter
    (fun c ->
      if c <> '_' then begin
        let d = digit_value c in
        if d >= radix then invalid_arg "Nat.of_string_base: digit out of range";
        digits := d :: !digits
      end)
    s;
  if !digits = [] then invalid_arg "Nat.of_string_base: no digits";
  of_base_digits ~base:radix (Array.of_list (List.rev !digits))

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Nat.of_string: empty";
  let radix, start =
    if len >= 2 && s.[0] = '0' then
      match s.[1] with
      | 'x' | 'X' -> (16, 2)
      | 'o' | 'O' -> (8, 2)
      | 'b' | 'B' -> (2, 2)
      | _ -> (10, 0)
    else (10, 0)
  in
  if start >= len then invalid_arg "Nat.of_string: empty after prefix";
  let digits = ref [] in
  for i = len - 1 downto start do
    if s.[i] <> '_' then begin
      let d = digit_value s.[i] in
      if d >= radix then invalid_arg "Nat.of_string: digit out of range";
      digits := d :: !digits
    end
  done;
  if !digits = [] then invalid_arg "Nat.of_string: no digits";
  of_base_digits ~base:radix (Array.of_list !digits)

let pp fmt a = Format.pp_print_string fmt (to_string a)

(* Kernel interface: Scratch workspaces share the limb representation
   and copy limbs across the boundary without re-encoding. *)

let limbs (a : t) : int array = a

let of_limbs_copy a len =
  if len < 0 || len > Array.length a then
    invalid_arg "Nat.of_limbs_copy: bad length";
  normalize (Array.sub a 0 len)
