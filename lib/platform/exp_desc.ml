(* Declarative experiment descriptors.

   An experiment used to be an opaque [seed -> scale -> unit] closure that
   hid its grid inside nested loops; the registry could neither enumerate
   the cells nor run them anywhere but inline. A descriptor makes the grid
   shape first-class: [cells] enumerates every (figure x policy x knob)
   point, [run_cell] evaluates one point against a run context, and
   [summarize] — always executed on the coordinating domain, after every
   cell has completed — renders tables and checks cross-cell oracles.

   The result type ['r] is existential: each driver picks its own, and the
   pack guarantees [summarize] only ever sees results produced by its own
   [run_cell]. *)

type cell = { key : string; label : string }

type t =
  | T : {
      name : string;
      title : string;
      description : string;
      cells : cell list;
      run_cell : Run_ctx.t -> seed:int -> scale:float -> cell -> 'r;
      summarize :
        Run_ctx.t -> seed:int -> scale:float -> (cell * 'r) list -> unit;
    }
      -> t

let make ~name ~title ~description ~cells ~run_cell ~summarize =
  ignore
    (List.fold_left
       (fun seen c ->
         if List.mem c.key seen then
           invalid_arg
             (Printf.sprintf "Exp_desc.make: duplicate cell key %S in %s" c.key
                name)
         else c.key :: seen)
       [] cells);
  T { name; title; description; cells; run_cell; summarize }

(* A one-cell experiment: the driver does all its printing through the
   cell context and there is nothing to merge. *)
let single ~name ~title ~description run =
  T
    {
      name;
      title;
      description;
      cells = [ { key = "all"; label = title } ];
      run_cell = (fun ctx ~seed ~scale _cell -> run ctx ~seed ~scale);
      summarize = (fun _ctx ~seed:_ ~scale:_ _results -> ());
    }

let name (T d) = d.name
let title (T d) = d.title
let description (T d) = d.description
let cells (T d) = d.cells
let cell_count (T d) = List.length d.cells

let result results key =
  List.find_map (fun (c, r) -> if c.key = key then Some r else None) results

(* Glob over the whole key with [*] as the only metacharacter: the first
   segment anchors at the start, the last at the end, and the ones in
   between are found leftmost-first, which is exact for [*]-only globs. *)
let glob pattern key =
  let n = String.length key in
  let at i s =
    let l = String.length s in
    i + l <= n && String.sub key i l = s
  in
  let rec find s i =
    if i + String.length s > n then None
    else if at i s then Some (i + String.length s)
    else find s (i + 1)
  in
  let rec rest i = function
    | [ last ] ->
        let l = String.length last in
        n - i >= l && at (n - l) last
    | seg :: segs -> (
        match find seg i with Some j -> rest j segs | None -> false)
    | [] -> true
  in
  match String.split_on_char '*' pattern with
  | [ exact ] -> String.equal exact key
  | first :: segs -> at 0 first && rest (String.length first) segs
  | [] -> false

let matches patterns cell =
  List.exists
    (fun p -> glob p cell.key)
    (String.split_on_char ',' patterns)
