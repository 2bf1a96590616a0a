type counter = { mutable count : int }

type gauge = { mutable value : float; mutable touched : bool }

type histogram = {
  bounds : float array;  (* upper bounds of all but the overflow bucket *)
  buckets : int array;  (* length = Array.length bounds + 1 *)
  mutable observations : int;
  mutable sum : float;
  mutable hi : float;
  mutable lo : float;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { table : (string, metric) Hashtbl.t; mutable order : string list }

let create () = { table = Hashtbl.create 32; order = [] }

let counter t name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Registry: %S is not a counter" name)
  | None ->
    let c = { count = 0 } in
    Hashtbl.replace t.table name (Counter c);
    t.order <- name :: t.order;
    c

let incr ?(by = 1) c = c.count <- c.count + by

let counter_value c = c.count

let gauge t name =
  match Hashtbl.find_opt t.table name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Registry: %S is not a gauge" name)
  | None ->
    let g = { value = 0.; touched = false } in
    Hashtbl.replace t.table name (Gauge g);
    t.order <- name :: t.order;
    g

let set g v =
  g.value <- v;
  g.touched <- true

let set_max g v =
  if (not g.touched) || v > g.value then set g v

let gauge_value g = g.value

let default_bounds =
  (* Log-spaced decades from 1 ms to 100 s: fits both packet delays (seconds)
     and queue depths / event counts when used as a generic histogram. *)
  [| 0.001; 0.003; 0.01; 0.03; 0.1; 0.3; 1.; 3.; 10.; 30.; 100. |]

let histogram ?(bounds = default_bounds) t name =
  match Hashtbl.find_opt t.table name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg (Printf.sprintf "Registry: %S is not a histogram" name)
  | None ->
    let sorted = Array.copy bounds in
    Array.sort compare sorted;
    let h =
      {
        bounds = sorted;
        buckets = Array.make (Array.length sorted + 1) 0;
        observations = 0;
        sum = 0.;
        hi = neg_infinity;
        lo = infinity;
      }
    in
    Hashtbl.replace t.table name (Histogram h);
    t.order <- name :: t.order;
    h

let observe h v =
  let rec bucket i =
    if i >= Array.length h.bounds then i
    else if v <= h.bounds.(i) then i
    else bucket (i + 1)
  in
  let i = bucket 0 in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.observations <- h.observations + 1;
  h.sum <- h.sum +. v;
  if v > h.hi then h.hi <- v;
  if v < h.lo then h.lo <- v

let observations h = h.observations

let mean h = if h.observations = 0 then 0. else h.sum /. float_of_int h.observations

let quantile h q =
  if h.observations = 0 then 0.
  else begin
    let target =
      int_of_float (Float.ceil (q *. float_of_int h.observations)) |> max 1
    in
    let rec walk i seen =
      if i >= Array.length h.buckets then h.hi
      else
        let seen = seen + h.buckets.(i) in
        if seen >= target then
          if i < Array.length h.bounds then h.bounds.(i) else h.hi
        else walk (i + 1) seen
    in
    walk 0 0
  end

(* ---------- snapshots ---------- *)

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of {
      n : int;
      sum : float;
      mean : float;
      min : float;
      max : float;
      p50 : float;
      p95 : float;
      p99 : float;
    }

let snapshot_of = function
  | Counter c -> Counter_value c.count
  | Gauge g -> Gauge_value g.value
  | Histogram h ->
    Histogram_value
      {
        n = h.observations;
        sum = h.sum;
        mean = mean h;
        min = (if h.observations = 0 then 0. else h.lo);
        max = (if h.observations = 0 then 0. else h.hi);
        p50 = quantile h 0.5;
        p95 = quantile h 0.95;
        p99 = quantile h 0.99;
      }

let names t = List.rev t.order

let snapshot t =
  List.filter_map
    (fun name ->
      Option.map (fun m -> (name, snapshot_of m)) (Hashtbl.find_opt t.table name))
    (names t)

let lookup t name = Option.map snapshot_of (Hashtbl.find_opt t.table name)

let pp_value ppf = function
  | Counter_value n -> Fmt.pf ppf "%d" n
  | Gauge_value v ->
    if Float.is_integer v && Float.abs v < 1e15 then Fmt.pf ppf "%.0f" v
    else Fmt.pf ppf "%g" v
  | Histogram_value { n; mean; min; max; p50; p95; p99; _ } ->
    Fmt.pf ppf "n=%d mean=%g min=%g p50<=%g p95<=%g p99<=%g max=%g" n mean min
      p50 p95 p99 max

let pp ppf t =
  let entries = snapshot t in
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf (name, v) ->
         Fmt.pf ppf "%-32s %a" name pp_value v))
    entries
