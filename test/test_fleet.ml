(* The fleet substrate's determinism and accounting contracts.

   The tentpole claim: a fleet run — deliveries, counters, membership —
   is identical at any worker-domain count, because every NIC's epoch
   work touches only NIC-local state and the exchange itself is
   sequential. The qcheck property drives random send programs (with
   random crashes) through jobs=1 and jobs=8 fleets and demands the
   same delivery logs and the same counter dumps. *)

open Taichi_engine
open Taichi_faults
open Taichi_fleet

(* --- exchange determinism (qcheck) ------------------------------------- *)

(* A NIC universe for substrate tests: a private delivery log. *)
type unit_nic = { mutable log : string list }

let make_fleet n =
  let nics = Array.init n (fun _ -> { log = [] }) in
  let counters = Array.init n (fun _ -> Counters.create ()) in
  let fleet = Fleet.create ~nics ~counters () in
  (fleet, nics, counters)

(* One program step: at [epoch], NIC [src] sends to [dst]. Crashes are
   (nic, epoch) pairs applied in the controller phase. *)
type program = {
  pr_nics : int;
  pr_epochs : int;
  pr_sends : (int * int * int) list; (* epoch, src, dst *)
  pr_crashes : (int * int) list; (* epoch, nic *)
}

let run_program ~jobs p =
  let fleet, nics, counters = make_fleet p.pr_nics in
  let deliver ~nic m =
    nics.(nic).log <-
      Printf.sprintf "e%d src=%d seq=%d sent=%d %s" (Fleet.epoch fleet)
        m.Fleet.src m.Fleet.seq m.Fleet.sent_epoch m.Fleet.payload
      :: nics.(nic).log
  in
  let advance ~nic ~epoch =
    List.iter
      (fun (e, src, dst) ->
        if e = epoch && src = nic then
          Fleet.send fleet ~src ~dst (Printf.sprintf "m%d.%d.%d" e src dst))
      p.pr_sends
  in
  let control ~epoch =
    List.iter
      (fun (e, i) -> if e = epoch && Fleet.alive fleet i then Fleet.crash fleet i)
      p.pr_crashes
  in
  Fleet.run ~jobs ~control fleet ~epochs:p.pr_epochs ~deliver ~advance;
  let logs = Array.to_list (Array.map (fun n -> List.rev n.log) nics) in
  let dumps = Array.to_list (Array.map Counters.dump counters) in
  (logs, dumps)

let program_gen =
  QCheck.Gen.(
    let* nics = int_range 2 6 in
    let* epochs = int_range 2 8 in
    let step = triple (int_range 0 (epochs - 1)) (int_range 0 (nics - 1))
                 (int_range 0 (nics - 1)) in
    let* sends = list_size (int_range 0 40) step in
    let* crashes =
      list_size (int_range 0 2)
        (pair (int_range 0 (epochs - 1)) (int_range 0 (nics - 1)))
    in
    return { pr_nics = nics; pr_epochs = epochs; pr_sends = sends;
             pr_crashes = crashes })

let program_print p =
  Printf.sprintf "{nics=%d epochs=%d sends=[%s] crashes=[%s]}" p.pr_nics
    p.pr_epochs
    (String.concat ";"
       (List.map (fun (e, s, d) -> Printf.sprintf "%d:%d->%d" e s d) p.pr_sends))
    (String.concat ";"
       (List.map (fun (e, i) -> Printf.sprintf "%d:%d" e i) p.pr_crashes))

let exchange_determinism =
  QCheck.Test.make ~name:"fleet jobs=1 == jobs=8 on random programs"
    ~count:100
    (QCheck.make ~print:program_print program_gen)
    (fun p ->
      let logs1, dumps1 = run_program ~jobs:1 p in
      let logs8, dumps8 = run_program ~jobs:8 p in
      logs1 = logs8 && dumps1 = dumps8)

(* Delivery order is canonical (src, seq), one epoch later. *)
let test_delivery_order () =
  let fleet, nics, counters = make_fleet 3 in
  let deliver ~nic m =
    nics.(nic).log <-
      Printf.sprintf "src=%d seq=%d sent=%d" m.Fleet.src m.Fleet.seq
        m.Fleet.sent_epoch
      :: nics.(nic).log
  in
  let advance ~nic ~epoch =
    if epoch = 0 then begin
      (* NIC 2 sends first in wall time; canonical order still puts
         NIC 0's messages ahead on delivery. *)
      if nic = 2 then Fleet.send fleet ~src:2 ~dst:1 "a";
      if nic = 0 then begin
        Fleet.send fleet ~src:0 ~dst:1 "b";
        Fleet.send fleet ~src:0 ~dst:1 "c"
      end
    end
  in
  Fleet.run fleet ~epochs:2 ~deliver ~advance;
  Alcotest.(check (list string))
    "NIC 1 sees (src0,seq0), (src0,seq1), (src2,seq0)"
    [ "src=0 seq=0 sent=0"; "src=0 seq=1 sent=0"; "src=2 seq=0 sent=0" ]
    (List.rev nics.(1).log);
  Alcotest.(check int) "delivered counted on dst" 3
    (Counters.get counters.(1) "fleet.exchange.delivered");
  Alcotest.(check int) "sent counted on srcs" 2
    (Counters.get counters.(0) "fleet.exchange.sent")

let test_partition_loss () =
  let fleet, nics, counters = make_fleet 4 in
  let deliver ~nic m =
    nics.(nic).log <- m.Fleet.payload :: nics.(nic).log
  in
  let advance ~nic ~epoch =
    if epoch = 1 then begin
      if nic = 0 then Fleet.send fleet ~src:0 ~dst:1 "cross";
      if nic = 2 then Fleet.send fleet ~src:2 ~dst:3 "same"
    end
  in
  let control ~epoch =
    if epoch = 0 then Fleet.partition fleet ~groups:[| 0; 1; 1; 1 |];
    if epoch = 2 then Fleet.heal fleet
  in
  Fleet.run ~control fleet ~epochs:4 ~deliver ~advance;
  Alcotest.(check (list string)) "cross-partition send dropped" []
    nics.(1).log;
  Alcotest.(check (list string)) "same-side send delivered" [ "same" ]
    nics.(3).log;
  Alcotest.(check int) "loss charged to the sender" 1
    (Counters.get counters.(0) "fleet.exchange.lost_partition")

(* --- RPC timeout / retry / abandon ------------------------------------- *)

let rpc_pair ?(nics = 2) ?timeout ?retry_base ?retry_cap ?max_attempts
    ~server () =
  let fleet, _, counters = make_fleet nics in
  let eps =
    Array.init nics (fun i ->
        Rpc.create ?timeout ?retry_base ?retry_cap ?max_attempts fleet ~nic:i)
  in
  Array.iteri (fun i ep -> if i > 0 then Rpc.register ep ~tag:"t" server) eps;
  (fleet, eps, counters)

let drive fleet eps ~epochs ~on_epoch =
  let deliver ~nic m = ignore (Rpc.deliver eps.(nic) m : bool) in
  let advance ~nic ~epoch =
    Rpc.tick eps.(nic) ~epoch;
    on_epoch ~nic ~epoch
  in
  Fleet.run fleet ~epochs ~deliver ~advance

let test_rpc_roundtrip () =
  let fleet, eps, counters =
    rpc_pair ~server:(fun ~src:_ body -> Some ("ack:" ^ body)) ()
  in
  let got = ref None in
  drive fleet eps ~epochs:4 ~on_epoch:(fun ~nic ~epoch ->
      if nic = 0 && epoch = 0 then
        Rpc.call eps.(0) ~dst:1 ~tag:"t" "hello"
          ~on_reply:(fun r -> got := Some r)
          ~on_abandon:(fun () -> Alcotest.fail "abandoned"));
  Alcotest.(check (option string)) "reply arrives" (Some "ack:hello") !got;
  Alcotest.(check int) "completed" 1
    (Counters.get counters.(0) "fleet.rpc.completed");
  Alcotest.(check int) "served" 1 (Counters.get counters.(1) "fleet.rpc.served");
  Alcotest.(check int) "no timeouts" 0
    (Counters.get counters.(0) "fleet.rpc.timeouts");
  Alcotest.(check int) "nothing outstanding" 0 (Rpc.outstanding eps.(0))

let test_rpc_retry_then_abandon () =
  (* The server swallows every request: the client must burn its full
     attempt budget on the capped-exponential schedule, then abandon. *)
  let fleet, eps, counters =
    rpc_pair ~timeout:1 ~retry_base:1 ~retry_cap:4 ~max_attempts:3
      ~server:(fun ~src:_ _ -> None) ()
  in
  let abandoned = ref 0 in
  drive fleet eps ~epochs:16 ~on_epoch:(fun ~nic ~epoch ->
      if nic = 0 && epoch = 0 then
        Rpc.call eps.(0) ~dst:1 ~tag:"t" "x"
          ~on_reply:(fun _ -> Alcotest.fail "server never replies")
          ~on_abandon:(fun () -> incr abandoned));
  Alcotest.(check int) "abandon callback fired once" 1 !abandoned;
  let get = Counters.get counters.(0) in
  Alcotest.(check int) "3 sends = 3 timeouts" 3 (get "fleet.rpc.timeouts");
  Alcotest.(check int) "2 retries after the first send" 2
    (get "fleet.rpc.retries");
  Alcotest.(check int) "abandoned counted" 1 (get "fleet.rpc.abandoned");
  Alcotest.(check int) "initial send counted once" 1 (get "fleet.rpc.sent");
  Alcotest.(check int) "server dropped every request" 3
    (Counters.get counters.(1) "fleet.rpc.unhandled" +
     Counters.get counters.(1) "fleet.rpc.served");
  Alcotest.(check int) "nothing outstanding" 0 (Rpc.outstanding eps.(0))

let test_rpc_dead_destination () =
  let fleet, eps, counters =
    rpc_pair ~timeout:1 ~retry_base:1 ~retry_cap:2 ~max_attempts:2
      ~server:(fun ~src:_ body -> Some body) ()
  in
  let abandoned = ref 0 in
  let control ~epoch = if epoch = 0 then Fleet.crash fleet 1 in
  let deliver ~nic m = ignore (Rpc.deliver eps.(nic) m : bool) in
  let advance ~nic ~epoch =
    Rpc.tick eps.(nic) ~epoch;
    if nic = 0 && epoch = 1 then
      Rpc.call eps.(0) ~dst:1 ~tag:"t" "x"
        ~on_reply:(fun _ -> Alcotest.fail "dst is dead")
        ~on_abandon:(fun () -> incr abandoned)
  in
  Fleet.run ~control fleet ~epochs:12 ~deliver ~advance;
  Alcotest.(check int) "abandoned" 1 !abandoned;
  Alcotest.(check int) "sends to the dead NIC dropped at the exchange" 2
    (Counters.get counters.(0) "fleet.exchange.lost_down")

(* --- crash-during-drain failover (full System harness) ------------------ *)

let test_crash_during_drain_failover () =
  (* Governor off so admissions land at their planned epochs: the drain
     overrun pins on a survivor and its 8 ms workload forces the
     escalation while a different NIC crashes mid-drain. Failover must
     still re-place every committed tenant, and the survivors' audit
     (inside Fleet_run.run) must stay green. *)
  let open Taichi_platform in
  let p =
    {
      Fleet_run.default_params with
      Fleet_run.nics = 4;
      epochs = 16;
      density = 2.0;
      governor = false;
      failover = true;
      fleet_jobs = 2;
      faults =
        {
          Nic_faults.quiet with
          Nic_faults.crashes = 1;
          crash_window = (10, 13);
          overruns = 1;
        };
    }
  in
  let rep = Fleet_run.run ~seed:11 p in
  Alcotest.(check int) "one NIC crashed" 1
    (List.length rep.Fleet_run.r_crashed);
  Alcotest.(check int) "no tenant lost" 0 (List.length rep.Fleet_run.r_lost);
  Alcotest.(check bool) "the overrun pinned" true
    (rep.Fleet_run.r_overruns_admitted >= 1);
  Alcotest.(check bool) "the drain was forced" true
    (rep.Fleet_run.r_forced_drains >= 1);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "committed tenant %s re-placed" c.Fleet_run.tenant)
        true
        (List.exists
           (fun r ->
             r.Fleet_run.tenant = c.Fleet_run.tenant
             && r.Fleet_run.from_nic = c.Fleet_run.from_nic)
           rep.Fleet_run.r_replaced))
    rep.Fleet_run.r_committed;
  List.iter
    (fun r ->
      Alcotest.(check bool) "receipt names a crashed NIC" true
        (List.mem r.Fleet_run.from_nic rep.Fleet_run.r_crashed))
    rep.Fleet_run.r_replaced;
  (* The rack-wide books: RPC completions bounded by sends, loss counters
     non-negative, attainment a fraction. *)
  let sum f = List.fold_left (fun a r -> a + f r) 0 rep.Fleet_run.r_nics in
  let sent = sum (fun r -> r.Fleet_run.nr_rpc_sent) in
  let completed = sum (fun r -> r.Fleet_run.nr_rpc_completed) in
  Alcotest.(check bool) "RPCs were sent" true (sent >= 1);
  Alcotest.(check bool) "RPC completed <= sent" true
    (completed >= 0 && completed <= sent);
  Alcotest.(check bool) "loss counters non-negative" true
    (rep.Fleet_run.r_abandoned >= 0
    && sum (fun r -> r.Fleet_run.nr_rpc_retries) >= 0);
  Alcotest.(check bool) "attainment in [0, 1]" true
    (rep.Fleet_run.r_attainment >= 0.0 && rep.Fleet_run.r_attainment <= 1.0)

let suite =
  [
    ("exchange determinism (qcheck)", `Slow,
     fun () -> ignore (QCheck.Test.check_exn exchange_determinism));
    ("delivery order is canonical (src, seq)", `Quick, test_delivery_order);
    ("partition drops cross-group traffic only", `Quick, test_partition_loss);
    ("rpc roundtrip completes in two epochs", `Quick, test_rpc_roundtrip);
    ("rpc retries then abandons on server drop", `Quick,
     test_rpc_retry_then_abandon);
    ("rpc to a crashed NIC abandons", `Quick, test_rpc_dead_destination);
    ("crash during drain: failover stays lossless", `Slow,
     test_crash_during_drain_failover);
  ]
  |> List.map (fun (n, s, f) -> Alcotest.test_case n s f)
