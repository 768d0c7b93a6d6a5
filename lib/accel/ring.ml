(* A bounded descriptor ring as a circular buffer: push and pop move two
   ints, no per-entry allocation (the seed used [Queue.t], one cons cell
   per push). Hot consumers drain with {!pop_burst_into} into a
   caller-owned scratch array; the list-returning {!pop_burst} survives
   for cold paths and tests.

   The buffer starts empty and doubles, up to [capacity], when a push
   finds it full, so a ring holds memory for the most descriptors it has
   held at once rather than for its bound. [capacity] alone decides
   drops: a push fails exactly when [len = capacity]. *)

type t = {
  name : string;
  capacity : int;
  mutable tenant : int;
  mutable buf : Packet.t array; (* length <= capacity *)
  mutable head : int;
  mutable len : int;
  mutable drops : int;
  mutable enqueued : int;
}

let create ?(capacity = 4096) ?(tenant = 0) ~name () =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  {
    name;
    capacity;
    tenant;
    buf = [||];
    head = 0;
    len = 0;
    drops = 0;
    enqueued = 0;
  }

let name t = t.name
let capacity t = t.capacity
let tenant t = t.tenant
let set_tenant t tenant = t.tenant <- tenant
let length t = t.len
let is_empty t = t.len = 0

let wrap t i =
  let n = Array.length t.buf in
  if i >= n then i - n else i

let iter f t =
  for k = 0 to t.len - 1 do
    f t.buf.(wrap t (t.head + k))
  done

(* The buffer is full but the ring is not: double it, re-linearised so
   the oldest descriptor sits at index 0. *)
let grow t =
  let nb = Array.make (min t.capacity (max 16 (2 * t.len))) Packet.dummy in
  for k = 0 to t.len - 1 do
    nb.(k) <- t.buf.(wrap t (t.head + k))
  done;
  t.buf <- nb;
  t.head <- 0

let push t pkt =
  if t.len >= t.capacity then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    if t.len = Array.length t.buf then grow t;
    t.buf.(wrap t (t.head + t.len)) <- pkt;
    t.len <- t.len + 1;
    t.enqueued <- t.enqueued + 1;
    true
  end

let pop_burst_into t dst ~max =
  let n = min (min max (Array.length dst)) t.len in
  for k = 0 to n - 1 do
    dst.(k) <- t.buf.(wrap t (t.head + k))
  done;
  t.head <- wrap t (t.head + n);
  t.len <- t.len - n;
  n

let pop_burst t ~max =
  let n = min max t.len in
  let rec take k acc =
    if k < 0 then acc else take (k - 1) (t.buf.(wrap t (t.head + k)) :: acc)
  in
  let pkts = take (n - 1) [] in
  t.head <- wrap t (t.head + n);
  t.len <- t.len - n;
  pkts

let drops t = t.drops
let total_enqueued t = t.enqueued
