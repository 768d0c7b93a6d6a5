(* Cmdliner front end for the experiment suite. *)

open Cmdliner
module P = Taichi_platform

let experiment_names = List.map P.Exp_desc.name P.Experiments.all

let name_arg =
  let doc =
    "Experiment id: " ^ String.concat ", " experiment_names
    ^ ", or 'all'. Omit with $(b,--list)."
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)

let seed_arg =
  let doc = "Root random seed (experiments are bit-reproducible per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let scale_arg =
  let doc =
    "Duration scale factor: 1.0 runs the full experiment, smaller values \
     shrink simulated time for quick checks."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~doc)

let jobs_arg =
  let doc =
    "Run experiment cells on $(docv) OCaml domains. Output, oracles and \
     trace exports are byte-identical at any value (cells merge in \
     declaration order); 1 runs inline."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let list_arg =
  let doc = "List the registered experiments with their cell counts." in
  Arg.(value & flag & info [ "list" ] ~doc)

let trace_arg =
  let doc =
    "Collect the scheduler-wide trace and print per-run occupancy \
     timelines and counters after the experiment."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_json_arg =
  let doc =
    "Collect the scheduler-wide trace and export every run as JSON \
     (schema taichi-trace-v1) to $(docv). Deterministic for a fixed seed \
     and any $(b,--jobs)."
  in
  Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc)

let cells_arg =
  let doc =
    "Run only the cells whose key matches one of the comma-separated \
     $(docv), where $(b,*) matches any substring: $(b,storm-*), \
     $(b,*-on), $(b,*n8-*fo_on). A pattern set that matches no cell \
     exits 1 and lists the experiment's cell keys. Not allowed with \
     $(b,all)."
  in
  Arg.(value & opt (some string) None & info [ "cells" ] ~docv:"PATTERNS" ~doc)

let list_experiments () =
  Printf.printf "%-11s %5s  %s\n" "name" "cells" "description";
  List.iter
    (fun d ->
      Printf.printf "%-11s %5d  %s\n" (P.Exp_desc.name d)
        (P.Exp_desc.cell_count d)
        (P.Exp_desc.description d))
    P.Experiments.all

let print_trace_report runs =
  List.iter
    (fun (run : Taichi_metrics.Export.run) ->
      Format.printf "@.trace: %s / %s (seed %d)@." run.experiment run.policy
        run.seed;
      Format.printf "%a@." Taichi_metrics.Timeline.pp run.timeline;
      Format.printf "counters:@.";
      List.iter
        (fun (name, v) -> Format.printf "  %-32s %d@." name v)
        run.counters)
    runs

(* Exit codes: 0 success, 1 usage / export error, 2 uncaught experiment
   failure (Cmdliner), 3 post-experiment audit violation — a run that
   produced output but left the machine in an incoherent state must be
   distinguishable from an infrastructure error in CI. *)
let audit_exit_code = 3

let report_audit_failures failures =
  List.iter
    (fun (f : P.Run_ctx.audit_failure) ->
      Printf.eprintf "AUDIT FAILURE: %s (seed %d):\n" f.experiment f.seed;
      List.iter (Printf.eprintf "  - %s\n") f.violations)
    failures;
  Printf.eprintf "%d run(s) failed the post-experiment audit\n"
    (List.length failures)

let run name seed scale jobs list trace trace_json cells =
  if list then begin
    list_experiments ();
    0
  end
  else
    match name with
    | None ->
        Printf.eprintf "missing EXPERIMENT (try --list)\n";
        1
    | Some "all" when cells <> None ->
        Printf.eprintf "--cells selects within one experiment, not 'all'\n";
        1
    | Some name -> (
        let tracing = trace || trace_json <> None in
        (* Collect audit violations instead of aborting mid-batch: every
           experiment still runs, then the process exits with the distinct
           audit status below. *)
        let ctx = P.Run_ctx.create ~tracing ~audit:P.Run_ctx.Collect () in
        let run_desc desc =
          let ctx = P.Run_ctx.with_experiment ctx (P.Exp_desc.name desc) in
          P.Sweep.run ~jobs ?filter:(Option.map P.Exp_desc.matches cells)
            ctx desc ~seed ~scale
        in
        let status =
          if name = "all" then begin
            List.iter run_desc P.Experiments.all;
            0
          end
          else
            match P.Experiments.find name with
            | Some desc -> (
                let all_cells = P.Exp_desc.cells desc in
                match cells with
                | Some pats
                  when not (List.exists (P.Exp_desc.matches pats) all_cells)
                  ->
                    Printf.eprintf "--cells %s matches no cell of %s; its \
                                    cells: %s\n"
                      pats name
                      (String.concat ", "
                         (List.map (fun c -> c.P.Exp_desc.key) all_cells));
                    1
                | _ ->
                    run_desc desc;
                    0)
            | None ->
                Printf.eprintf "unknown experiment %s" name;
                (match P.Experiments.closest name with
                | Some (suggestion, n) ->
                    Printf.eprintf " (did you mean %s, %d cells?)" suggestion n
                | None -> ());
                Printf.eprintf "; known: %s\n"
                  (String.concat ", " experiment_names);
                1
        in
        let status =
          if status = 0 && tracing then begin
            let runs = P.Run_ctx.runs ctx in
            if trace then print_trace_report runs;
            (* Export failures must not look like a successful run: report
               and fail cleanly rather than dying on an uncaught
               Sys_error. *)
            match trace_json with
            | Some path -> (
                try
                  Taichi_metrics.Export.write_file path runs;
                  Printf.printf "trace export: %d run(s) written to %s\n"
                    (List.length runs) path;
                  status
                with Sys_error msg ->
                  Printf.eprintf "cannot write trace export: %s\n" msg;
                  1)
            | None -> status
          end
          else status
        in
        match P.Run_ctx.audit_failures ctx with
        | [] -> status
        | failures ->
            report_audit_failures failures;
            audit_exit_code)

let cmd =
  let doc = "Reproduce the Tai Chi (SOSP'25) evaluation on the simulator" in
  let info = Cmd.info "taichi_sim" ~doc in
  Cmd.v info
    Term.(
      const run $ name_arg $ seed_arg $ scale_arg $ jobs_arg $ list_arg
      $ trace_arg $ trace_json_arg $ cells_arg)

let main () = exit (Cmd.eval' cmd)
