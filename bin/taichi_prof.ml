(* taichi_prof — where one experiment's host time goes.

     taichi_prof EXPERIMENT [--scale F] [--seed N] [--top N] [--out FILE]

   Runs one registry experiment (Experiments.find, Sweep.run ~jobs:1,
   tracing off) under a SIGPROF interval timer. Every tick of process CPU
   time the handler records the OCaml call stack (Printexc.get_callstack);
   at the end the tool prints the most frequent frames, as file:line plus
   function name:

   - self: the innermost frame of a sample — where the time was spent;
   - inclusive: every frame on the sample's stack, each counted once per
     sample — which calls the time was spent under.

   The shares are approximate. OCaml runs a signal handler only at its
   next poll point (an allocation, a function entry or a loop back-edge),
   so a tick landing in C code or in a long allocation-free stretch is
   credited to the next poll point after it, and ticks that arrive before
   the previous one was handled merge into one sample. Frames need debug
   information; dune builds executables with -g by default. The
   experiment's own output goes to stdout first, the report after it
   (and to FILE with --out). *)

open Taichi_platform

let interval_s = 0.001
let max_depth = 256

(* Raw stacks are kept as sampled and resolved to frames once, after the
   run, so the handler itself does little work. *)
let samples : Printexc.raw_backtrace list ref = ref []

let on_tick _ = samples := Printexc.get_callstack max_depth :: !samples

let profiler_file = __FILE__

let frames_of raw =
  match Printexc.backtrace_slots raw with
  | None -> []
  | Some slots ->
      Array.to_list slots
      |> List.filter_map (fun slot ->
             match Printexc.Slot.location slot with
             | None -> None
             | Some loc ->
                 let name =
                   match Printexc.Slot.name slot with Some n -> n | None -> "?"
                 in
                 Some
                   ( loc.Printexc.filename,
                     Printf.sprintf "%s:%d %s" loc.Printexc.filename
                       loc.Printexc.line_number name ))
      (* Drop the handler's own frames: the sample starts at whatever the
         tick interrupted. *)
      |> List.filter (fun (file, _) -> file <> profiler_file)
      |> List.map snd

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let ranked tbl =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare b a with 0 -> compare ka kb | c -> c)

let report ~exp ~scale ~seed ~top ~wall =
  let self = Hashtbl.create 256 and incl = Hashtbl.create 1024 in
  let n = List.length !samples in
  List.iter
    (fun raw ->
      match frames_of raw with
      | [] -> bump self "(no OCaml frame)"
      | innermost :: _ as frames ->
          bump self innermost;
          List.iter (bump incl) (List.sort_uniq compare frames))
    !samples;
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.bprintf buf fmt in
  pr "taichi_prof: %s seed=%d scale=%g wall=%.2fs samples=%d (%.0f ms of CPU each)\n"
    exp seed scale wall n (interval_s *. 1e3);
  pr "shares are approximate: a tick is credited to the next OCaml poll point\n";
  let table title tbl =
    pr "\ntop %d %s frames:\n" top title;
    List.iteri
      (fun i (frame, k) ->
        if i < top then
          pr "  %5.1f%%  %6d  %s\n"
            (100.0 *. float_of_int k /. float_of_int (max 1 n))
            k frame)
      (ranked tbl)
  in
  table "self" self;
  table "inclusive" incl;
  Buffer.contents buf

let usage () =
  prerr_endline
    "usage: taichi_prof EXPERIMENT [--scale F] [--seed N] [--top N] \
     [--out FILE]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse ((exp, scale, seed, top, out) as acc) = function
    | [] -> acc
    | "--scale" :: v :: rest -> parse (exp, float_of_string v, seed, top, out) rest
    | "--seed" :: v :: rest -> parse (exp, scale, int_of_string v, top, out) rest
    | "--top" :: v :: rest -> parse (exp, scale, seed, int_of_string v, out) rest
    | "--out" :: v :: rest -> parse (exp, scale, seed, top, Some v) rest
    | name :: rest when exp = None && name <> "" && name.[0] <> '-' ->
        parse (Some name, scale, seed, top, out) rest
    | _ -> usage ()
  in
  let exp, scale, seed, top, out =
    try parse (None, 1.0, 42, 25, None) args with Failure _ -> usage ()
  in
  let exp = match exp with Some e -> e | None -> usage () in
  let desc =
    match Experiments.find exp with
    | Some d -> d
    | None ->
        Printf.eprintf "taichi_prof: unknown experiment %s\n" exp;
        exit 1
  in
  let ctx = Run_ctx.create ~experiment:exp () in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_tick);
  let timer = { Unix.it_interval = interval_s; it_value = interval_s } in
  let t0 = Unix.gettimeofday () in
  ignore (Unix.setitimer Unix.ITIMER_PROF timer);
  Sweep.run ~jobs:1 ctx desc ~seed ~scale;
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  let wall = Unix.gettimeofday () -. t0 in
  let text = report ~exp ~scale ~seed ~top ~wall in
  print_string text;
  match out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc
