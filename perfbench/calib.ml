(* Host-speed reference: a fixed piece of work, independent of the
   simulator, timed between executions. Hash-table inserts, lookups and
   removals over a working set of about a megabyte plus short-lived
   allocation: the mix of cache misses and minor collections the
   simulator's event loop makes. *)

let keys = 1 lsl 15

let work () =
  let tbl = Hashtbl.create keys in
  let state = ref 0x2545F491 in
  let acc = ref 0 in
  for _ = 1 to 2 * keys do
    (* xorshift key stream *)
    let x = !state in
    let x = x lxor ((x lsl 13) land 0x3FFFFFFF) in
    let x = x lxor (x lsr 17) in
    let x = x lxor ((x lsl 5) land 0x3FFFFFFF) in
    state := x;
    let k = x land ((4 * keys) - 1) in
    match Hashtbl.find_opt tbl k with
    | Some (a, _) ->
        acc := !acc + a;
        Hashtbl.remove tbl k
    | None -> Hashtbl.replace tbl k (k, [ k; !acc ])
  done;
  !acc + Hashtbl.length tbl

(* The reference round's host time on the host the bounds were set on
   (2-core x86-64 VM). Benchmark times are reported rescaled to it. *)
let nominal_s = 0.02

(* Host seconds for one round of the reference work. *)
let run () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0
