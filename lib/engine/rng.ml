(* The xoshiro256++ state lives in one 32-byte [Bytes] (s0..s3 at byte
   offsets 0, 8, 16, 24, native-endian) instead of four mutable [int64]
   fields: a mutable [int64] field holds a boxed value, so every state
   update allocated. [Bytes.get/set_int64_ne] read and write the raw
   words, and with {!step} inlined the derived samplers below keep the
   whole update in registers. *)
type t = Bytes.t

let get r i = Bytes.get_int64_ne r (8 * i)
let set r i v = Bytes.set_int64_ne r (8 * i) v

let of_words s0 s1 s2 s3 =
  let r = Bytes.create 32 in
  set r 0 s0;
  set r 1 s1;
  set r 2 s2;
  set r 3 s3;
  r

(* splitmix64: used to expand a seed into xoshiro state and to hash stream
   names into seed material. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let st = ref seed64 in
  let s0 = splitmix_next st in
  let s1 = splitmix_next st in
  let s2 = splitmix_next st in
  let s3 = splitmix_next st in
  (* xoshiro must not start from the all-zero state. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let create ~seed = of_seed64 (Int64.of_int seed)

(* FNV-1a over the name, mixed with the parent's current state so that
   distinct parents with equal names still diverge. *)
let split parent name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    name;
  let material =
    Int64.logxor !h
      (Int64.add (get parent 0) (Int64.mul 0x9E3779B97F4A7C15L (get parent 2)))
  in
  of_seed64 material

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step: advance the state, return the output. Inlined
   into each sampler so the output reaches its consumer unboxed. *)
let[@inline] step r =
  let open Int64 in
  let s0 = get r 0 and s1 = get r 1 and s2 = get r 2 and s3 = get r 3 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set r 1 (logxor s1 s2);
  set r 0 (logxor s0 s3);
  set r 2 (logxor s2 t);
  set r 3 (rotl s3 45);
  result

let bits64 r = step r

let fill_array r a =
  for i = 0 to Array.length a - 1 do
    a.(i) <- step r
  done

let[@inline] nonneg r = Int64.to_int (Int64.shift_right_logical (step r) 2)

let int r n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. The rejection limit only
     depends on [n]; computing it once instead of per retry keeps the
     division out of the redraw loop. *)
  let limit = 0x3FFFFFFFFFFFFFFF / n * n in
  let v = ref (nonneg r) in
  while !v >= limit do
    v := nonneg r
  done;
  !v mod n

let int_range r ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_range: hi < lo";
  lo + int r (hi - lo + 1)

(* Uniform in [0, 1): the top 53 bits over 2^53. *)
let[@inline] unit_float r =
  Int64.to_float (Int64.shift_right_logical (step r) 11) /. 9007199254740992.0

let float r x = x *. unit_float r
let bool r = Int64.logand (step r) 1L = 1L

(* [unit_float r] is exactly [float r 1.0], without the box. *)
let bernoulli r ~p = unit_float r < p

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
