module Acc = struct
  type t = {
    mutable count : int;
    mutable weight : float;
    mutable mean : float;
    mutable m2 : float;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { count = 0; weight = 0.0; mean = 0.0; m2 = 0.0; sum = 0.0;
      min = infinity; max = neg_infinity }

  let add_weighted t ~weight x =
    if weight > 0.0 then begin
      t.count <- t.count + 1;
      t.sum <- t.sum +. (weight *. x);
      let w' = t.weight +. weight in
      let delta = x -. t.mean in
      t.mean <- t.mean +. (delta *. weight /. w');
      t.m2 <- t.m2 +. (weight *. delta *. (x -. t.mean));
      t.weight <- w';
      if x < t.min then t.min <- x;
      if x > t.max then t.max <- x
    end

  let add t x = add_weighted t ~weight:1.0 x
  let count t = t.count
  let total_weight t = t.weight
  let sum t = t.sum
  let mean t = if t.count = 0 then nan else t.mean
  let variance t = if t.count < 2 then 0.0 else t.m2 /. t.weight
  let std_dev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
end

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs ->
      let logsum =
        List.fold_left
          (fun acc x ->
            assert (x > 0.0);
            acc +. log x)
          0.0 xs
      in
      exp (logsum /. float_of_int (List.length xs))

let weighted_mean pairs =
  let wsum, vsum =
    List.fold_left
      (fun (w, v) (weight, value) -> (w +. weight, v +. (weight *. value)))
      (0.0, 0.0) pairs
  in
  if wsum = 0.0 then nan else vsum /. wsum

(* [Float.compare], not polymorphic [compare]: the sort is on the hot
   latency-percentile path of the bench load generator, where the
   polymorphic-compare penalty is measurable, and it makes the NaN
   order explicit — [Float.compare] is a total order with every NaN
   below every number, so an array containing NaN yields NaN for low
   percentiles deterministically instead of depending on input
   order. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let percentile a p =
  if Array.length a = 0 then invalid_arg "Stats.percentile: empty array";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  percentile_sorted sorted p

let percentiles a ps =
  if Array.length a = 0 then invalid_arg "Stats.percentiles: empty array";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  List.map (percentile_sorted sorted) ps

let median a = percentile a 50.0

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    bins : int;
    counts : float array; (* index 0 = underflow, bins+1 = overflow *)
  }

  let create ~lo ~hi ~bins =
    assert (bins > 0 && hi > lo);
    { lo; hi; bins; counts = Array.make (bins + 2) 0.0 }

  let index t x =
    if x < t.lo then 0
    else if x >= t.hi then t.bins + 1
    else
      let width = (t.hi -. t.lo) /. float_of_int t.bins in
      1 + int_of_float ((x -. t.lo) /. width)

  let add t ?(weight = 1.0) x =
    let i = index t x in
    t.counts.(i) <- t.counts.(i) +. weight

  let bin_count t = t.bins + 2
  let bin_weight t i = t.counts.(i)

  let bin_bounds t i =
    let width = (t.hi -. t.lo) /. float_of_int t.bins in
    if i = 0 then (neg_infinity, t.lo)
    else if i = t.bins + 1 then (t.hi, infinity)
    else
      let lo = t.lo +. (float_of_int (i - 1) *. width) in
      (lo, lo +. width)

  let total t = Array.fold_left ( +. ) 0.0 t.counts

  let fractions t =
    let sum = total t in
    if sum = 0.0 then Array.make (t.bins + 2) 0.0
    else Array.map (fun c -> c /. sum) t.counts

  let mass_below t threshold =
    let acc = ref 0.0 in
    for i = 0 to t.bins + 1 do
      let lo, _ = bin_bounds t i in
      if lo < threshold && i > 0 then acc := !acc +. t.counts.(i)
      else if i = 0 then acc := !acc +. t.counts.(0)
    done;
    !acc
end
