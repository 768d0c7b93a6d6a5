(* The HdrHistogram-style log-linear bucket layout shared by
   [Taichi_engine.Histogram] and [Taichi_metrics.Quantile]: values below
   2 * sub_count map one-to-one; above that, each power of two is split
   into [sub_count] sub-buckets (sub_bucket_bits = 5). Extracted so the
   two histogram implementations cannot drift apart — they used to carry
   hand-copied duplicates of these functions. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 *)

(* Position of the highest set bit of [v > 0]: a fixed six-step binary
   search over shifts (an int has at most 63 bits). *)
let highest_bit v =
  let x = ref v and h = ref 0 in
  if !x lsr 32 <> 0 then begin
    x := !x lsr 32;
    h := 32
  end;
  if !x lsr 16 <> 0 then begin
    x := !x lsr 16;
    h := !h + 16
  end;
  if !x lsr 8 <> 0 then begin
    x := !x lsr 8;
    h := !h + 8
  end;
  if !x lsr 4 <> 0 then begin
    x := !x lsr 4;
    h := !h + 4
  end;
  if !x lsr 2 <> 0 then begin
    x := !x lsr 2;
    h := !h + 2
  end;
  if !x lsr 1 <> 0 then !h + 1 else !h

(* Index of the bucket containing v (v >= 0). *)
let index_of v =
  if v < 2 * sub_count then v
  else
    let h = highest_bit v in
    let shift = h - sub_bits in
    let sub = (v lsr shift) - sub_count in
    (((h - sub_bits) + 1) * sub_count) + sub

(* Upper bound of the values mapped to bucket [i]. For the topmost
   buckets the exact bound exceeds the native int range — the shifted
   (sub_count + sub + 1) would wrap — so it saturates at [max_int],
   keeping upper_of (index_of v) >= v over the full non-negative int
   range. *)
let upper_of i =
  if i < 2 * sub_count then i
  else
    let block = (i / sub_count) - 1 in
    let sub = i mod sub_count in
    if block >= Sys.int_size - sub_bits - 2 then max_int
    else ((sub_count + sub + 1) lsl block) - 1
