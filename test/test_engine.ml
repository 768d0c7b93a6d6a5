(* Unit and property tests for the discrete-event engine. *)

open Taichi_engine

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Time_ns -------------------------------------------------------------- *)

let test_time_units () =
  checki "us" 1_000 (Time_ns.us 1);
  checki "ms" 1_000_000 (Time_ns.ms 1);
  checki "sec" 1_000_000_000 (Time_ns.sec 1);
  checki "minutes" 60_000_000_000 (Time_ns.minutes 1);
  checki "of_us_f rounds" 1_500 (Time_ns.of_us_f 1.5);
  check (Alcotest.float 1e-9) "to_ms_f" 2.5 (Time_ns.to_ms_f 2_500_000)

let test_time_pp () =
  check Alcotest.string "ns" "999ns" (Time_ns.to_string 999);
  check Alcotest.string "us" "1.50us" (Time_ns.to_string 1_500);
  check Alcotest.string "ms" "2.00ms" (Time_ns.to_string 2_000_000);
  check Alcotest.string "s" "1.000s" (Time_ns.to_string 1_000_000_000)

(* --- Pheap ----------------------------------------------------------------- *)

let test_heap_order () =
  let h = Pheap.create () in
  List.iteri (fun i k -> Pheap.push h ~key:k ~seq:i i) [ 5; 1; 9; 3; 1; 7 ];
  let keys = ref [] in
  let rec drain () =
    match Pheap.pop h with
    | Some (k, _, _) ->
        keys := k :: !keys;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 9; 7; 5; 3; 1; 1 ] !keys

let test_heap_fifo_ties () =
  let h = Pheap.create () in
  Pheap.push h ~key:4 ~seq:0 "a";
  Pheap.push h ~key:4 ~seq:1 "b";
  Pheap.push h ~key:4 ~seq:2 "c";
  let pop () = match Pheap.pop h with Some (_, _, v) -> v | None -> "?" in
  check Alcotest.string "first" "a" (pop ());
  check Alcotest.string "second" "b" (pop ());
  check Alcotest.string "third" "c" (pop ())

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Pheap.create () in
      List.iteri (fun i k -> Pheap.push h ~key:k ~seq:i k) keys;
      let rec drain acc =
        match Pheap.pop h with Some (k, _, _) -> drain (k :: acc) | None -> acc
      in
      let popped = List.rev (drain []) in
      popped = List.sort compare keys)

(* Cancellation is modelled the way [Sim] uses the heap: dead elements
   stay as tombstones until a [compact] sweeps them. Two rounds of
   insert / cancel / compact must leave exactly the live elements, popped
   in (key, seq) order — i.e. compaction preserves both the live-event
   set and the deterministic FIFO tie-break. *)
let prop_heap_compact_live_set =
  QCheck.Test.make ~name:"heap compact preserves live set and order"
    ~count:200
    QCheck.(
      pair
        (small_list (pair small_int bool))
        (small_list (pair small_int bool)))
    (fun (round1, round2) ->
      let h = Pheap.create () in
      let seq = ref 0 in
      let push_round ops =
        List.map
          (fun (key, alive) ->
            let s = !seq in
            incr seq;
            Pheap.push h ~key ~seq:s (s, alive);
            (key, s, alive))
          ops
      in
      let keep (_, alive) = alive in
      let r1 = push_round round1 in
      Pheap.compact h ~keep;
      let r2 = push_round round2 in
      Pheap.compact h ~keep;
      let expected =
        List.filter (fun (_, _, alive) -> alive) (r1 @ r2)
        |> List.map (fun (key, s, _) -> (key, s))
        |> List.sort compare
      in
      let rec drain acc =
        match Pheap.pop h with
        | Some (k, s, (s', alive)) ->
            if s <> s' || not alive then raise Exit;
            drain ((k, s) :: acc)
        | None -> List.rev acc
      in
      match drain [] with
      | popped -> popped = expected
      | exception Exit -> false)

(* --- Sim -------------------------------------------------------------------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim 30 (fun () -> log := 3 :: !log));
  ignore (Sim.at sim 10 (fun () -> log := 1 :: !log));
  ignore (Sim.at sim 20 (fun () -> log := 2 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  checki "clock at last event" 30 (Sim.now sim)

let test_sim_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (Sim.at sim 5 (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.at sim 10 (fun () -> fired := true) in
  Sim.cancel sim h;
  Sim.run sim;
  checkb "not fired" false !fired;
  checkb "not pending" false (Sim.is_pending sim h)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore (Sim.at sim 10 (fun () -> incr fired));
  ignore (Sim.at sim 100 (fun () -> incr fired));
  Sim.run ~until:50 sim;
  checki "one fired" 1 !fired;
  checki "clock stops at until" 50 (Sim.now sim);
  Sim.run sim;
  checki "rest fired" 2 !fired

let test_sim_past_raises () =
  let sim = Sim.create () in
  ignore (Sim.at sim 10 (fun () -> ()));
  Sim.run sim;
  Alcotest.check_raises "past scheduling"
    (Invalid_argument "Sim.at: time 5 is before now 10") (fun () ->
      ignore (Sim.at sim 5 (fun () -> ())))

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.at sim 10 (fun () ->
         log := "outer" :: !log;
         ignore (Sim.after sim 5 (fun () -> log := "inner" :: !log))));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  checki "clock" 15 (Sim.now sim)

let test_sim_immediate () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.at sim 10 (fun () ->
         log := 1 :: !log;
         ignore (Sim.immediate sim (fun () -> log := 2 :: !log))));
  ignore (Sim.at sim 10 (fun () -> log := 3 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "immediate runs after queued" [ 1; 3; 2 ]
    (List.rev !log)

let test_sim_counters () =
  let sim = Sim.create () in
  let h1 = Sim.at sim 1 (fun () -> ()) in
  let _h2 = Sim.at sim 2 (fun () -> ()) in
  checki "pending 2" 2 (Sim.pending_events sim);
  Sim.cancel sim h1;
  checki "pending 1 after cancel" 1 (Sim.pending_events sim);
  Sim.run sim;
  checki "pending 0" 0 (Sim.pending_events sim);
  checki "fired 1" 1 (Sim.events_processed sim)

let test_sim_tombstone_compaction () =
  let sim = Sim.create () in
  let order = ref [] in
  let handles =
    Array.init 10_000 (fun i ->
        Sim.after sim (i + 1) (fun () -> order := i :: !order))
  in
  (* Cancel 90%: tombstones vastly outnumber live events, so the heap must
     have been rebuilt rather than retaining every dead entry. *)
  Array.iteri (fun i h -> if i mod 10 <> 0 then Sim.cancel sim h) handles;
  checki "live preserved" 1000 (Sim.pending_events sim);
  checkb "compacted at least once" true (Sim.compactions sim > 0);
  checkb "dead entries bounded by ~2x live" true
    (Sim.dead_events sim <= (2 * Sim.pending_events sim) + 64);
  Sim.run sim;
  let fired = List.rev !order in
  checki "all survivors fired" 1000 (List.length fired);
  checkb "fired in schedule order" true
    (fired = List.init 1000 (fun k -> k * 10))

(* --- Sim vs. the seed engine (differential oracle) ------------------------- *)

(* Both engines expose the same timer-program surface; the calendar-queue
   engine must be observationally identical to the seed binary heap. *)
module type ENGINE = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> Time_ns.t
  val at : t -> Time_ns.t -> (unit -> unit) -> handle
  val cancel : t -> handle -> unit
  val run : ?until:Time_ns.t -> t -> unit
  val pending_events : t -> int
  val events_processed : t -> int
  val events_scheduled : t -> int
  val dead_events : t -> int
  val compactions : t -> int
end

(* [Sim_legacy]'s handle record carries its owner, so its [cancel] takes
   only the handle; adapt it to the shared ENGINE surface where handles
   are owner-relative ints. *)
module Legacy_engine = struct
  include Taichi_oracle.Sim_legacy

  let cancel _sim h = Taichi_oracle.Sim_legacy.cancel h
end

(* Interpret a random op list: schedule (delays spanning same-instant ties
   through far beyond the calendar wheel's ~2.1 ms horizon, so the overflow
   tier and its drain get exercised), cancel an arbitrary earlier handle
   (possibly already fired — must be a no-op), or advance with [run ~until].
   Returns the full observable trace: fire order with clock readings, final
   clock, and every counter including compaction activity. *)
let run_timer_program (module E : ENGINE) ops =
  let sim = E.create () in
  let log = ref [] in
  let handles = ref [] in
  let nh = ref 0 in
  List.iter
    (fun (op, a, _b) ->
      match op with
      | 0 ->
          let k = !nh in
          let h =
            E.at sim
              (E.now sim + (a mod 5_000_000))
              (fun () -> log := (k, E.now sim) :: !log)
          in
          handles := h :: !handles;
          incr nh
      | 1 ->
          if !nh > 0 then E.cancel sim (List.nth !handles (a mod !nh))
      | _ -> E.run ~until:(E.now sim + (a mod 300_000)) sim)
    ops;
  E.run sim;
  ( List.rev !log,
    E.now sim,
    ( E.pending_events sim,
      E.events_processed sim,
      E.events_scheduled sim,
      E.dead_events sim,
      E.compactions sim ) )

let prop_sim_differential =
  QCheck.Test.make ~name:"calendar engine == seed engine on random programs"
    ~count:120
    QCheck.(
      list_of_size (Gen.int_range 0 200)
        (triple (int_bound 2) (int_bound 4_999_999) small_int))
    (fun ops ->
      let new_r = run_timer_program (module Sim) ops in
      let old_r = run_timer_program (module Legacy_engine) ops in
      new_r = old_r)

(* Dense same-instant bursts with interleaved cancels are where a bucketed
   queue could most plausibly break FIFO tie-breaks; pin them separately
   from the mixed program above. *)
let prop_sim_differential_ties =
  QCheck.Test.make ~name:"calendar engine == seed engine on same-time ties"
    ~count:120
    QCheck.(
      list_of_size (Gen.int_range 0 150)
        (triple (int_bound 2) (int_bound 40) small_int))
    (fun ops ->
      let new_r = run_timer_program (module Sim) ops in
      let old_r = run_timer_program (module Legacy_engine) ops in
      new_r = old_r)

(* Batched-dispatch adversary. The production engine lifts dense calendar
   buckets into a scratch batch and dispatches from it; this program does
   everything a half-dispatched batch could get wrong: callbacks that
   schedule fresh events into the very bucket being drained (they must
   interleave with the batch in (time, seq) order), callbacks that cancel
   entries still sitting in the batch (lazy tombstones must drop at the
   same observable instant the heap engine drops them), and chunked
   [run ~until] stops that land mid-batch (the remainder must survive to
   the next run). All of it must be observationally identical to the
   seed heap engine, counters included. *)
let run_batched_program (module E : ENGINE) ops =
  let sim = E.create () in
  let log = ref [] in
  let handles = ref [] in
  let nh = ref 0 in
  let add h =
    handles := h :: !handles;
    incr nh
  in
  let schedule k ~delay ~act ~arg =
    add
      (E.at sim
         (E.now sim + delay)
         (fun () ->
           log := (k, E.now sim) :: !log;
           match act with
           | 1 ->
               (* spawn a sibling, almost always into the bucket being
                  dispatched *)
               add
                 (E.at sim
                    (E.now sim + (arg mod 900))
                    (fun () -> log := (k + 10_000, E.now sim) :: !log))
           | 2 -> if !nh > 0 then E.cancel sim (List.nth !handles (arg mod !nh))
           | _ -> ()))
  in
  List.iteri
    (fun k (op, a, b) ->
      match op with
      | 0 | 1 | 2 -> schedule k ~delay:(a mod 1200) ~act:op ~arg:b
      | _ -> E.run ~until:(E.now sim + (a mod 700)) sim)
    ops;
  E.run sim;
  ( List.rev !log,
    E.now sim,
    ( E.pending_events sim,
      E.events_processed sim,
      E.events_scheduled sim,
      E.dead_events sim,
      E.compactions sim ) )

let prop_sim_differential_batched =
  QCheck.Test.make
    ~name:"calendar engine == seed engine under batched dispatch" ~count:150
    QCheck.(
      list_of_size (Gen.int_range 0 200)
        (triple (int_bound 3) (int_bound 4999) small_int))
    (fun ops ->
      run_batched_program (module Sim) ops
      = run_batched_program (module Legacy_engine) ops)

(* --- Counters: handle/string equivalence ----------------------------------- *)

(* A table driven through any interleaving of the string API, pre-interned
   handles, [add_h] and per-tenant lanes must be indistinguishable — in
   [dump] and [get] — from one driven purely through strings. Registration
   alone (op 3) must leave no trace in the snapshot. *)
let prop_counters_handle_string_equiv =
  let names =
    [| "a.one"; "b.two"; "c.three"; "dp.bytes"; "m.n.o"; "zz" |]
  in
  QCheck.Test.make
    ~name:"counter handles == string keys on random interleavings" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 0 120)
        (triple (int_bound 5) (int_bound 20) small_int))
    (fun ops ->
      let mixed = Counters.create () in
      let reference = Counters.create () in
      List.iter
        (fun (op, ni, byraw) ->
          let name = names.(ni mod Array.length names) in
          let by = (byraw land 7) + 1 in
          match op with
          | 0 ->
              Counters.incr mixed ~by name;
              Counters.incr reference ~by name
          | 1 ->
              Counters.incr_h mixed ~by (Counters.handle mixed name);
              Counters.incr reference ~by name
          | 2 ->
              Counters.add_h mixed (Counters.handle mixed name) by;
              Counters.incr reference ~by name
          | 3 -> ignore (Counters.handle mixed name)
          | 4 ->
              let tid = ni mod 3 in
              Counters.lane_incr (Counters.lane mixed name) ~by tid;
              Counters.incr reference ~by
                (Printf.sprintf "tenant.%d.%s" tid name)
          | _ ->
              Counters.clear mixed;
              Counters.clear reference)
        ops;
      Counters.dump mixed = Counters.dump reference
      && Array.for_all
           (fun name -> Counters.get mixed name = Counters.get reference name)
           names)

(* --- Pheap regression: grow after clear ------------------------------------ *)

(* [Pheap.grow] used to size the new store off [h.arr.(0)], which crashed
   the first push after [clear] emptied the backing array. *)
let test_heap_clear_then_push () =
  let h = Pheap.create () in
  for i = 1 to 200 do
    Pheap.push h ~key:i ~seq:i i
  done;
  Pheap.clear h;
  checki "cleared" 0 (Pheap.length h);
  for i = 1 to 200 do
    Pheap.push h ~key:(201 - i) ~seq:i i
  done;
  checki "refilled" 200 (Pheap.length h);
  match Pheap.pop h with
  | Some (k, _, _) -> checki "min after refill" 1 k
  | None -> Alcotest.fail "heap empty after refill"

(* --- Bucket_layout --------------------------------------------------------- *)

(* Values across the whole non-negative int range, dense at the bottom
   (where the layout is one-to-one) and log-spread up to [max_int] (where
   [upper_of] must saturate rather than overflow). *)
let any_bucket_value =
  QCheck.make
    ~print:string_of_int
    QCheck.Gen.(
      oneof
        [
          int_range 0 200;
          map
            (fun (shift, low) -> ((1 lsl shift) lor (low land ((1 lsl shift) - 1))) land max_int)
            (pair (int_range 0 61) (int_range 0 max_int));
          return max_int;
        ])

let prop_bucket_upper_covers =
  QCheck.Test.make ~name:"bucket upper_of (index_of v) >= v" ~count:2000
    any_bucket_value
    (fun v ->
      let u = Bucket_layout.upper_of (Bucket_layout.index_of v) in
      u >= v)

let prop_bucket_monotone =
  QCheck.Test.make ~name:"bucket index_of and upper_of monotone" ~count:2000
    QCheck.(pair any_bucket_value any_bucket_value)
    (fun (a, b) ->
      let lo = Stdlib.min a b and hi = Stdlib.max a b in
      let ilo = Bucket_layout.index_of lo and ihi = Bucket_layout.index_of hi in
      ilo <= ihi && Bucket_layout.upper_of ilo <= Bucket_layout.upper_of ihi)

let test_bucket_saturation () =
  checki "top bucket saturates at max_int" max_int
    (Bucket_layout.upper_of (Bucket_layout.index_of max_int));
  (* The exact layout below 2 * sub_count is one-to-one. *)
  for v = 0 to (2 * Bucket_layout.sub_count) - 1 do
    checki "exact range is identity" v
      (Bucket_layout.upper_of (Bucket_layout.index_of v))
  done

(* --- Histogram scan regressions -------------------------------------------- *)

(* Reference semantics for [percentile]: the target-ranked value's bucket
   upper bound, clamped into [min, max]. The early-exit rewrite must agree
   with this bucket-order definition on every input. *)
let reference_percentile values p =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let target = Stdlib.max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))) in
  let v = List.nth sorted (target - 1) in
  let lo = List.hd sorted and hi = List.nth sorted (n - 1) in
  Stdlib.max lo
    (Stdlib.min (Bucket_layout.upper_of (Bucket_layout.index_of v)) hi)

let prop_histogram_percentile_reference =
  QCheck.Test.make ~name:"percentile matches full-scan reference" ~count:500
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 60) (int_range 0 100_000_000))
        (int_range 0 1000))
    (fun (values, p1000) ->
      let p = float_of_int p1000 /. 10.0 in
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      Histogram.percentile h p = reference_percentile values p)

let prop_histogram_cdf_reference =
  QCheck.Test.make ~name:"cdf_points matches full-scan reference" ~count:500
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 0 100_000_000))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      let n = List.length values in
      let expected =
        (* group by bucket index in ascending order, accumulate counts *)
        let sorted =
          List.sort compare (List.map Bucket_layout.index_of values)
        in
        let rec group acc = function
          | [] -> List.rev acc
          | i :: rest ->
              let same, rest' = List.partition (fun j -> j = i) (i :: rest) in
              group ((i, List.length same) :: acc) rest'
        in
        let acc = ref 0 in
        List.map
          (fun (i, c) ->
            acc := !acc + c;
            (Bucket_layout.upper_of i, float_of_int !acc /. float_of_int n))
          (group [] sorted)
      in
      Histogram.cdf_points h = expected)

(* --- Rng / Dist -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let root = Rng.create ~seed:7 in
  let a = Rng.split root "alpha" and b = Rng.split root "beta" in
  let va = Rng.bits64 a and vb = Rng.bits64 b in
  checkb "different streams" true (va <> vb)

let test_rng_split_stable () =
  (* Splitting is insensitive to how much the sibling stream was used. *)
  let r1 = Rng.create ~seed:9 in
  let _ = Rng.split r1 "x" in
  let a = Rng.split r1 "y" in
  let r2 = Rng.create ~seed:9 in
  let b = Rng.split r2 "y" in
  Alcotest.(check int64) "stable derivation" (Rng.bits64 a) (Rng.bits64 b)

let prop_rng_int_range =
  QCheck.Test.make ~name:"Rng.int in range" ~count:500
    QCheck.(pair (int_range 1 1_000_000) small_int)
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 50 do
    checkb "p=0 never" false (Rng.bernoulli rng ~p:0.0);
    checkb "p=1 always" true (Rng.bernoulli rng ~p:1.0)
  done

let test_dist_exponential_mean () =
  let rng = Rng.create ~seed:11 in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add s (Dist.exponential rng ~mean:5.0)
  done;
  checkb "mean within 5%" true (Float.abs (Stats.mean s -. 5.0) < 0.25)

let test_dist_normal_moments () =
  let rng = Rng.create ~seed:12 in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add s (Dist.normal rng ~mu:10.0 ~sigma:2.0)
  done;
  checkb "mean" true (Float.abs (Stats.mean s -. 10.0) < 0.1);
  checkb "sd" true (Float.abs (Stats.stddev s -. 2.0) < 0.1)

let test_dist_bounded_pareto_bounds () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 5_000 do
    let v = Dist.bounded_pareto rng ~lo:1.0 ~hi:67.0 ~shape:1.8 in
    checkb "within bounds" true (v >= 1.0 && v <= 67.0)
  done

let test_dist_poisson_mean () =
  let rng = Rng.create ~seed:14 in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add_int s (Dist.poisson rng ~lambda:7.5)
  done;
  checkb "poisson mean" true (Float.abs (Stats.mean s -. 7.5) < 0.15)

let test_dist_empirical () =
  let e = Dist.empirical_of_weighted [ (1.0, 1.0); (10.0, 1.0) ] in
  let rng = Rng.create ~seed:15 in
  let lo = ref 0 and hi = ref 0 in
  for _ = 1 to 2_000 do
    let v = Dist.empirical_sample e rng in
    checkb "range" true (v >= 0.5 && v <= 10.0);
    if v <= 5.0 then incr lo else incr hi
  done;
  checkb "both sides sampled" true (!lo > 200 && !hi > 200)

let test_dist_lognormal_ns_median () =
  let rng = Rng.create ~seed:16 in
  let values = Array.init 9_999 (fun _ -> Dist.lognormal_ns rng ~median:1000 ~sigma:0.5) in
  Array.sort compare values;
  let median = values.(Array.length values / 2) in
  checkb "median near 1000" true (abs (median - 1000) < 100)

(* --- Stats -------------------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  checki "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-6) "var" (5.0 /. 3.0) (Stats.variance s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  List.iter
    (fun x ->
      Stats.add whole x;
      if x < 3.0 then Stats.add a x else Stats.add b x)
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  let m = Stats.merge a b in
  check (Alcotest.float 1e-9) "merged mean" (Stats.mean whole) (Stats.mean m);
  check (Alcotest.float 1e-6) "merged var" (Stats.variance whole) (Stats.variance m);
  checki "merged count" (Stats.count whole) (Stats.count m)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.0) "mean empty" 0.0 (Stats.mean s);
  Alcotest.check_raises "min empty" (Invalid_argument "Stats.min: empty")
    (fun () -> ignore (Stats.min s))

(* --- Histogram ------------------------------------------------------------------ *)

let test_histogram_exact_small () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 2; 3; 4; 5 ];
  checki "count" 5 (Histogram.count h);
  checki "min" 1 (Histogram.min_value h);
  checki "max" 5 (Histogram.max_value h);
  checki "p50" 3 (Histogram.percentile h 50.0);
  checki "p100" 5 (Histogram.percentile h 100.0)

let test_histogram_relative_error () =
  let h = Histogram.create () in
  let values = [ 100; 1_000; 10_000; 100_000; 1_000_000; 50_000_000 ] in
  List.iter (Histogram.add h) values;
  List.iteri
    (fun i v ->
      let p = (float_of_int (i + 1) /. 6.0 *. 100.0) -. 0.01 in
      let q = Histogram.percentile h p in
      let err = Float.abs (float_of_int (q - v)) /. float_of_int v in
      checkb (Printf.sprintf "p%.0f within 4%%" p) true (err < 0.04))
    values

let test_histogram_cdf () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h i
  done;
  let below = Histogram.fraction_below h 51 in
  checkb "about half below 51" true (Float.abs (below -. 0.5) < 0.05);
  let points = Histogram.cdf_points h in
  let _, last = List.nth points (List.length points - 1) in
  check (Alcotest.float 1e-9) "cdf reaches 1" 1.0 last

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1; 2; 3 ];
  List.iter (Histogram.add b) [ 1_000_000; 2_000_000 ];
  let m = Histogram.merge a b in
  checki "merged count" 5 (Histogram.count m);
  checki "merged min" 1 (Histogram.min_value m);
  checki "merged max" 2_000_000 (Histogram.max_value m)

let prop_histogram_percentile_bounds =
  QCheck.Test.make ~name:"percentile within [min,max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 0 1_000_000))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      List.for_all
        (fun p ->
          let q = Histogram.percentile h p in
          q >= Histogram.min_value h && q <= Histogram.max_value h)
        [ 0.1; 25.0; 50.0; 90.0; 99.0; 100.0 ])

let prop_histogram_mean_exact =
  QCheck.Test.make ~name:"histogram mean is exact" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 0 1_000_000))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      let expected =
        float_of_int (List.fold_left ( + ) 0 values)
        /. float_of_int (List.length values)
      in
      Float.abs (Histogram.mean h -. expected) < 1e-6)

(* --- Trace -------------------------------------------------------------------- *)

let test_trace_disabled_by_default () =
  let t = Trace.create () in
  Trace.emit t ~time:5 ~category:"x" "hello";
  checki "no records" 0 (Trace.length t)

let test_trace_enabled () =
  let t = Trace.create ~enabled:true () in
  Trace.emit t ~time:5 ~category:"sched" "switch";
  Trace.emitf t ~time:6 ~category:"sched" "cpu %d" 3;
  Trace.emit t ~time:7 ~category:"io" "packet";
  checki "records" 3 (Trace.length t);
  checki "by category" 2 (List.length (Trace.by_category t "sched"));
  let r = List.hd (Trace.records t) in
  check Alcotest.string "message" "switch" r.Trace.message

let test_trace_limit () =
  let t = Trace.create ~enabled:true ~limit:3 () in
  for i = 1 to 10 do
    Trace.emit t ~time:i ~category:"c" (string_of_int i)
  done;
  checki "bounded" 3 (Trace.length t);
  let first = List.hd (Trace.records t) in
  check Alcotest.string "oldest dropped" "8" first.Trace.message;
  checki "evictions counted" 7 (Trace.dropped t);
  (* Retained records stay chronological after wraparound. *)
  let times = List.map (fun r -> r.Trace.time) (Trace.records t) in
  checkb "ordered" true (times = List.sort compare times);
  Trace.clear t;
  checki "clear resets dropped" 0 (Trace.dropped t)

(* The disabled branch of emitf must not touch any global formatter:
   it used to drain [Format.str_formatter], corrupting whatever a
   concurrent caller had staged there. *)
let test_trace_disabled_emitf_pure () =
  let t = Trace.create () in
  Format.fprintf Format.str_formatter "sentinel";
  Trace.emitf t ~time:1 ~category:"c" "cpu %d did %s" 3 "things";
  check Alcotest.string "str_formatter untouched" "sentinel"
    (Format.flush_str_formatter ());
  checki "no records" 0 (Trace.length t)

let test_trace_core_field () =
  let t = Trace.create ~enabled:true () in
  Trace.emit t ~time:1 ~core:4 ~category:"c" "a";
  Trace.emit t ~time:2 ~category:"c" "b";
  (match Trace.records t with
  | [ r1; r2 ] ->
      checki "explicit core" 4 r1.Trace.core;
      checki "default is no_core" Trace.no_core r2.Trace.core
  | _ -> Alcotest.fail "expected two records");
  checki "by_core" 1 (List.length (Trace.by_core t 4))

let test_counters () =
  let c = Counters.create () in
  Counters.incr c "b.two";
  Counters.incr c ~by:4 "a.one";
  Counters.incr c "b.two";
  checki "get" 2 (Counters.get c "b.two");
  checki "missing is zero" 0 (Counters.get c "nope");
  Alcotest.(check (list (pair string int)))
    "dump sorted by name"
    [ ("a.one", 4); ("b.two", 2) ]
    (Counters.dump c);
  Counters.clear c;
  checki "cleared" 0 (Counters.get c "a.one")

let test_stats_clear () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 100.0; 200.0; 400.0 ];
  Stats.clear s;
  checki "count reset" 0 (Stats.count s);
  check (Alcotest.float 1e-9) "mean reset" 0.0 (Stats.mean s);
  (* Post-clear observations must not blend with pre-clear ones. *)
  List.iter (Stats.add s) [ 10.0; 20.0; 30.0 ];
  checki "fresh count" 3 (Stats.count s);
  check (Alcotest.float 1e-9) "fresh mean" 20.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "fresh stddev" 10.0 (Stats.stddev s);
  check (Alcotest.float 1e-9) "fresh min" 10.0 (Stats.min s);
  check (Alcotest.float 1e-9) "fresh max" 30.0 (Stats.max s)

let suite =
  [
    ("time units", `Quick, test_time_units);
    ("time pretty-printing", `Quick, test_time_pp);
    ("heap ordering", `Quick, test_heap_order);
    ("heap FIFO tie-break", `Quick, test_heap_fifo_ties);
    ("sim event ordering", `Quick, test_sim_ordering);
    ("sim same-time FIFO", `Quick, test_sim_same_time_fifo);
    ("sim cancellation", `Quick, test_sim_cancel);
    ("sim run until", `Quick, test_sim_until);
    ("sim rejects past", `Quick, test_sim_past_raises);
    ("sim nested scheduling", `Quick, test_sim_nested_schedule);
    ("sim immediate ordering", `Quick, test_sim_immediate);
    ("sim counters", `Quick, test_sim_counters);
    ("sim tombstone compaction", `Quick, test_sim_tombstone_compaction);
    ("heap clear then push", `Quick, test_heap_clear_then_push);
    ("bucket layout saturation", `Quick, test_bucket_saturation);
    ("rng determinism", `Quick, test_rng_deterministic);
    ("rng split independence", `Quick, test_rng_split_independent);
    ("rng split stability", `Quick, test_rng_split_stable);
    ("rng bernoulli extremes", `Quick, test_rng_bernoulli_extremes);
    ("dist exponential mean", `Quick, test_dist_exponential_mean);
    ("dist normal moments", `Quick, test_dist_normal_moments);
    ("dist bounded pareto bounds", `Quick, test_dist_bounded_pareto_bounds);
    ("dist poisson mean", `Quick, test_dist_poisson_mean);
    ("dist empirical", `Quick, test_dist_empirical);
    ("dist lognormal_ns median", `Quick, test_dist_lognormal_ns_median);
    ("stats basics", `Quick, test_stats_basic);
    ("stats merge", `Quick, test_stats_merge);
    ("stats empty", `Quick, test_stats_empty);
    ("histogram exact small values", `Quick, test_histogram_exact_small);
    ("histogram relative error", `Quick, test_histogram_relative_error);
    ("histogram cdf", `Quick, test_histogram_cdf);
    ("histogram merge", `Quick, test_histogram_merge);
    ("trace disabled", `Quick, test_trace_disabled_by_default);
    ("trace enabled", `Quick, test_trace_enabled);
    ("trace bounded", `Quick, test_trace_limit);
    ("trace disabled emitf is pure", `Quick, test_trace_disabled_emitf_pure);
    ("trace core field", `Quick, test_trace_core_field);
    ("counters registry", `Quick, test_counters);
    ("stats clear", `Quick, test_stats_clear);
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_heap_compact_live_set;
    QCheck_alcotest.to_alcotest prop_rng_int_range;
    QCheck_alcotest.to_alcotest prop_histogram_percentile_bounds;
    QCheck_alcotest.to_alcotest prop_histogram_mean_exact;
    QCheck_alcotest.to_alcotest prop_sim_differential;
    QCheck_alcotest.to_alcotest prop_sim_differential_ties;
    QCheck_alcotest.to_alcotest prop_sim_differential_batched;
    QCheck_alcotest.to_alcotest prop_counters_handle_string_equiv;
    QCheck_alcotest.to_alcotest prop_bucket_upper_covers;
    QCheck_alcotest.to_alcotest prop_bucket_monotone;
    QCheck_alcotest.to_alcotest prop_histogram_percentile_reference;
    QCheck_alcotest.to_alcotest prop_histogram_cdf_reference;
  ]
