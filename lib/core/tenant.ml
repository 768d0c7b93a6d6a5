(* First-class tenants. A tenant is the unit of isolation the scheduler
   and the overload governor reason about: it owns a share weight (the
   two-stage scheduler's tenant-stage currency), a default admission
   class for its control-plane tasks, and an SLO contract — the bound on
   how far a noisy neighbour may move this tenant's dataplane p99.

   The registry distinguishes the implicit single tenant every
   pre-existing experiment runs under ([single], not [explicit]) from a
   configured multi-tenant table ([of_specs]). Per-tenant counters,
   trace lanes and export fields are only materialised for explicit
   multi-tenant tables, which is what keeps single-tenant runs
   byte-identical to the seed baselines.

   Since the churn work the population is no longer frozen at
   construction: explicit tables can [admit] new tenants mid-run and walk
   each tenant through the lifecycle state machine

     Admitted -> Active -> Draining -> Retired

   Ids stay dense and are never reused — a retired tenant keeps its id
   (and its frozen counter/trace lanes) forever, so per-tenant lane sums
   still equal the globals at every instant. Re-admitting the same name
   after retirement allocates a fresh id with fresh clocks. *)

open Taichi_engine

type cls = Critical | Standard | Deferrable

let cls_name = function
  | Critical -> "critical"
  | Standard -> "standard"
  | Deferrable -> "deferrable"

let cls_rank = function Critical -> 0 | Standard -> 1 | Deferrable -> 2
let all_classes = [ Critical; Standard; Deferrable ]

type phase = Admitted | Active | Draining | Retired

let phase_name = function
  | Admitted -> "admitted"
  | Active -> "active"
  | Draining -> "draining"
  | Retired -> "retired"

type spec = {
  name : string;
  weight : int;
  cls : cls;
  dp_p99_bound : Time_ns.t;
}

let spec ?(weight = 1) ?(cls = Standard) ?(dp_p99_bound = Time_ns.us 150)
    name =
  if weight <= 0 then invalid_arg "Tenant.spec: weight must be positive";
  if name = "" then invalid_arg "Tenant.spec: empty name";
  { name; weight; cls; dp_p99_bound }

type t = {
  id : int;
  name : string;
  weight : int;
  cls : cls;
  dp_p99_bound : Time_ns.t;
  mutable phase : phase;
}

type table = { mutable tenants : t array; explicit : bool }

let of_spec id (s : spec) =
  {
    id;
    name = s.name;
    weight = s.weight;
    cls = s.cls;
    dp_p99_bound = s.dp_p99_bound;
    phase = Active;
  }

(* The shared implicit table is never mutated: [admit] and [set_phase]
   refuse non-explicit tables, so handing out one module-level value
   stays safe under domain-parallel sweeps. *)
let single = { tenants = [| of_spec 0 (spec "default") |]; explicit = false }

(* Validation that names the offending spec: the spec smart constructor
   already rejects bad fields, but [spec] is an ordinary record type, so
   a hand-built record can bypass it. *)
let check_spec ~fn pos (s : spec) =
  if s.name = "" then
    invalid_arg (Printf.sprintf "Tenant.%s: empty tenant name (spec %d)" fn pos);
  if s.weight <= 0 then
    invalid_arg
      (Printf.sprintf "Tenant.%s: non-positive weight for tenant %S" fn s.name)

let of_specs = function
  | [] -> single
  | specs ->
      List.iteri (check_spec ~fn:"of_specs") specs;
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (s : spec) ->
          if Hashtbl.mem seen s.name then
            invalid_arg
              (Printf.sprintf "Tenant.of_specs: duplicate tenant name %S"
                 s.name);
          Hashtbl.add seen s.name ())
        specs;
      { tenants = Array.of_list (List.mapi of_spec specs); explicit = true }

let count tbl = Array.length tbl.tenants
let is_multi tbl = tbl.explicit && count tbl > 1
let get tbl id = tbl.tenants.(id)
let mem tbl id = id >= 0 && id < count tbl
let ids tbl = List.init (count tbl) Fun.id
let iter f tbl = Array.iter f tbl.tenants
let total_weight tbl = Array.fold_left (fun a t -> a + t.weight) 0 tbl.tenants

(* --- lifecycle ---------------------------------------------------------- *)

let phase tbl id = tbl.tenants.(id).phase
let live tbl id = mem tbl id && tbl.tenants.(id).phase <> Retired
let accepting tbl id =
  mem tbl id
  && match tbl.tenants.(id).phase with
     | Admitted | Active -> true
     | Draining | Retired -> false

(* Legal transitions only: the lifecycle is a one-way street. Boot
   tenants are created directly in [Active]; dynamically admitted ones
   start in [Admitted] and are activated once their resources are
   bound. *)
let set_phase tbl id next =
  if not tbl.explicit then
    invalid_arg "Tenant.set_phase: single-tenant table is static";
  let tenant = tbl.tenants.(id) in
  let ok =
    match (tenant.phase, next) with
    | Admitted, Active | Active, Draining | Draining, Retired -> true
    | _ -> false
  in
  if not ok then
    invalid_arg
      (Printf.sprintf "Tenant.set_phase: illegal transition %s -> %s for %S"
         (phase_name tenant.phase) (phase_name next) tenant.name);
  tenant.phase <- next

let admit tbl s =
  if not tbl.explicit then
    invalid_arg "Tenant.admit: single-tenant table is static";
  check_spec ~fn:"admit" (count tbl) s;
  (* A name is reusable once its previous holder retired: only the live
     population must be unambiguous. *)
  Array.iter
    (fun t ->
      if t.phase <> Retired && t.name = s.name then
        invalid_arg
          (Printf.sprintf "Tenant.admit: duplicate tenant name %S" s.name))
    tbl.tenants;
  let t = { (of_spec (count tbl) s) with phase = Admitted } in
  tbl.tenants <- Array.append tbl.tenants [| t |];
  t

(* Per-tenant counter naming convention: [tenant.<id>.<suffix>] mirrors
   the global counter [<suffix>]; the lints enforce that the per-tenant
   rows sum to the global. *)
let counter id suffix = Printf.sprintf "tenant.%d.%s" id suffix

let counter_prefix = "tenant."
