open Taichi_engine
open Taichi_core
open Taichi_virt

type t =
  | Static_partition
  | Taichi of Config.t
  | Taichi_vdp of Config.t
  | Type2
  | Naive_coschedule
  | Uintr_coschedule
  | Dedicated_core

let name = function
  | Static_partition -> "baseline"
  | Taichi cfg when not cfg.Config.hw_probe -> "taichi-no-hwprobe"
  | Taichi _ -> "taichi"
  | Taichi_vdp _ -> "taichi-vdp"
  | Type2 -> "type2"
  | Naive_coschedule -> "naive"
  | Uintr_coschedule -> "uintr"
  | Dedicated_core -> "dedicated-core"

let taichi_default = Taichi Config.default
let taichi_no_hw_probe = Taichi (Config.no_hw_probe Config.default)

let config = function
  | Taichi cfg | Taichi_vdp cfg -> cfg
  | Static_partition | Type2 | Naive_coschedule | Uintr_coschedule
  | Dedicated_core ->
      Config.default

let dp_cores_lost = function
  | Type2 -> 2
  | Dedicated_core -> 1
  | Static_partition | Taichi _ | Taichi_vdp _ | Naive_coschedule
  | Uintr_coschedule ->
      0

let dp_speed_tax = function
  | Taichi_vdp _ -> Cost_model.default.Cost_model.npt_tax +. 0.015
  | Type2 -> 0.02
  | Static_partition | Taichi _ | Naive_coschedule | Uintr_coschedule
  | Dedicated_core ->
      0.0

let cp_speed_tax = function
  | Type2 -> 0.05
  | Static_partition | Taichi _ | Taichi_vdp _ | Naive_coschedule
  | Uintr_coschedule | Dedicated_core ->
      0.0

let dpcp_roundtrip = function
  | Type2 -> Time_ns.us 150
  | Static_partition | Taichi _ | Taichi_vdp _ | Naive_coschedule
  | Uintr_coschedule | Dedicated_core ->
      Time_ns.us 30

(* Cost of giving a reclaimed core back to its data-plane service: the OS
   context-switch path for a normal scheduler, near-zero notification for
   UINTR-style designs (the waiting is in the non-preemptible routine, not
   the notification). *)
let reclaim_switch_cost = function
  | Uintr_coschedule -> Time_ns.ns 200
  | Static_partition | Taichi _ | Taichi_vdp _ | Type2 | Naive_coschedule
  | Dedicated_core ->
      Time_ns.us 2
