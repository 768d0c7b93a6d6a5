(* In-memory span recorder for the traced benchmark run.

   A span is one call from the benchmark into a library layer: its name,
   host start and end, the span that was open when it began (its parent)
   and the workload id. Spans are kept in an array-backed list while the
   run executes and written out once at the end. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  wid : string;  (** per-workload id shared by all spans of one run *)
  start_s : float;
  mutable stop_s : float;
}

type t = {
  wid : string;
  mutable spans : span list;  (** newest first *)
  mutable stack : span list;  (** open spans, innermost first *)
  mutable next : int;
}

let create ~wid = { wid; spans = []; stack = []; next = 0 }

let enter t name =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s =
    {
      id = t.next;
      parent;
      name;
      wid = t.wid;
      start_s = Unix.gettimeofday ();
      stop_s = nan;
    }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.stack <- s :: t.stack

let leave t =
  match t.stack with
  | s :: rest ->
      s.stop_s <- Unix.gettimeofday ();
      t.stack <- rest
  | [] -> invalid_arg "Span.leave: no open span"

let with_ t name f =
  enter t name;
  Fun.protect ~finally:(fun () -> leave t) f

let spans t = List.rev t.spans

(* Self time: a span's duration minus the part of it its direct children
   cover. Children run sequentially inside their parent, so their
   durations add up without overlap. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop_s -. s.start_s)
          +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.stop_s -. s.start_s
        -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0))
    t.spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* Well-formedness: every span closed, every parent recorded earlier,
   every child inside its parent's interval, one workload id, and no
   negative self time. Returns the violations. *)
let check t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace tbl s.id s) t.spans;
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if t.stack <> [] then err "%d spans still open" (List.length t.stack);
  List.iter
    (fun s ->
      if Float.is_nan s.stop_s || s.stop_s < s.start_s then
        err "span %d (%s) has no valid end" s.id s.name;
      if s.wid <> t.wid then err "span %d carries workload id %s" s.id s.wid;
      if s.parent >= 0 then
        match Hashtbl.find_opt tbl s.parent with
        | None -> err "span %d (%s) names unknown parent %d" s.id s.name s.parent
        | Some p ->
            if p.id >= s.id || s.start_s < p.start_s || s.stop_s > p.stop_s
            then err "span %d (%s) lies outside parent %d (%s)" s.id s.name p.id p.name)
    t.spans;
  (* Children share their parent's clock, so self time can only go below
     zero through clock rounding; allow a microsecond of it. *)
  List.iter
    (fun (name, self) ->
      if self < -1e-6 then err "span %s has negative self time %.9f" name self)
    (self_times t);
  List.rev !errs

let to_json t =
  let open Taichi_metrics.Json in
  Obj
    [
      ("workload_id", Str t.wid);
      ( "spans",
        Arr
          (List.map
             (fun s ->
               Obj
                 [
                   ("id", Int s.id);
                   ("parent", Int s.parent);
                   ("name", Str s.name);
                   ("start_s", Float s.start_s);
                   ("end_s", Float s.stop_s);
                 ])
             (spans t)) );
      ( "self_s",
        Obj (List.map (fun (n, v) -> (n, Float v)) (self_times t)) );
    ]
