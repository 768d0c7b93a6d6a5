open Taichi_engine

type resilience = {
  degraded_window : Time_ns.t;
  degraded_threshold : int;
  degraded_quiet : Time_ns.t;
}

type overload = {
  period : Time_ns.t;
  min_dwell : Time_ns.t;
  quiet : Time_ns.t;
  p99_bound : Time_ns.t;
  busy_high : float;
  busy_low : float;
  runq_high : int;
  runq_low : int;
  tokens_per_period : int;
  token_burst : int;
}

type t = {
  n_vcpus : int;
  hw_probe : bool;
  lock_safe_resched : bool;
  adaptive_slice : bool;
  adaptive_threshold : bool;
  tenants : Tenant.spec list;
  resilience : resilience option;
  overload : overload option;
  churn : bool;
}

let default_resilience =
  {
    degraded_window = Time_ns.ms 2;
    degraded_threshold = 12;
    degraded_quiet = Time_ns.ms 4;
  }

let default_overload =
  {
    period = Time_ns.us 200;
    min_dwell = Time_ns.us 400;
    quiet = Time_ns.ms 1;
    p99_bound = Time_ns.us 150;
    busy_high = 0.85;
    busy_low = 0.50;
    runq_high = 6;
    runq_low = 2;
    tokens_per_period = 4;
    token_burst = 8;
  }

let default =
  {
    n_vcpus = 8;
    hw_probe = true;
    lock_safe_resched = true;
    adaptive_slice = true;
    adaptive_threshold = true;
    tenants = [];
    resilience = None;
    overload = None;
    churn = false;
  }

let no_hw_probe t = { t with hw_probe = false }
let fixed_slice t = { t with adaptive_slice = false }
let fixed_threshold t = { t with adaptive_threshold = false }
let unsafe_locks t = { t with lock_safe_resched = false }
let resilient t = { t with resilience = Some default_resilience }
let with_overload t = { t with overload = Some default_overload }
let with_tenants t specs = { t with tenants = specs }
let with_churn t = { t with churn = true }

(* Note: builds a FRESH table on every call. Static callers may do this
   freely (the table is then immutable in practice); the platform builds
   exactly one per system and threads it through install so churn-time
   mutation is seen by every layer (see System.create). *)
let tenant_table t = Tenant.of_specs t.tenants
