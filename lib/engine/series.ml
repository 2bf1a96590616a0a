type t = {
  start : float;
  width : float;
  counts : float array;
  sums : float array;
}

let create ~start ~width ~buckets =
  if width <= 0. then invalid_arg "Series.create: width must be positive";
  if buckets <= 0 then invalid_arg "Series.create: buckets must be positive";
  { start; width; counts = Array.make buckets 0.; sums = Array.make buckets 0. }

let start t = t.start

let width t = t.width

let buckets t = Array.length t.counts

let bucket_of_time t time =
  let i = int_of_float (Float.floor ((time -. t.start) /. t.width)) in
  if time < t.start || i >= Array.length t.counts then None else Some i

let time_of_bucket t i = t.start +. (float_of_int i *. t.width)

(* [bucket_of_time] inlined without the option: this runs once or twice per
   delivered packet. *)
let add t ~time v =
  if time >= t.start then begin
    let i = int_of_float (Float.floor ((time -. t.start) /. t.width)) in
    if i < Array.length t.counts then begin
      t.counts.(i) <- t.counts.(i) +. 1.;
      t.sums.(i) <- t.sums.(i) +. v
    end
  end

let count t i = int_of_float (Float.round t.counts.(i))

let frac_count t i = t.counts.(i)

let sum t i = t.sums.(i)

let rate t i = t.counts.(i) /. t.width

let mean t i = if t.counts.(i) = 0. then 0. else t.sums.(i) /. t.counts.(i)

