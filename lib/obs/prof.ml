(* Scoped timers over a static registry. The hot-path contract: when the
   runtime flag is off, [enter]/[exit]/[time] reduce to one atomic load and
   a conditional branch — no clock read, no allocation, no writes — so
   instrumented binaries behave identically to uninstrumented ones except
   for the timing numbers they can report. *)

type scope = {
  name : string;
  mutable count : int;  (* completed outermost spans *)
  mutable calls : int;  (* all enters, including re-entrant *)
  mutable total_ns : float;
  mutable max_ns : float;
  mutable depth : int;  (* live nesting level; >0 means a span is open *)
  mutable t0 : int64;  (* start of the outermost live span *)
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Registration happens at module-init time (each instrumented module calls
   [scope] once for its handles), so a plain mutex is fine: it is never on
   the hot path. *)
let registry : (string, scope) Hashtbl.t = Hashtbl.create 32
let order : string list ref = ref []
let registry_lock = Mutex.create ()

let scope name =
  Mutex.lock registry_lock;
  let s =
    match Hashtbl.find_opt registry name with
    | Some s -> s
    | None ->
      let s =
        {
          name;
          count = 0;
          calls = 0;
          total_ns = 0.;
          max_ns = 0.;
          depth = 0;
          t0 = 0L;
        }
      in
      Hashtbl.replace registry name s;
      order := name :: !order;
      s
  in
  Mutex.unlock registry_lock;
  s

let now_ns () = Monotonic_clock.now ()

let enter s =
  if Atomic.get enabled_flag then begin
    s.calls <- s.calls + 1;
    if s.depth = 0 then s.t0 <- now_ns ();
    s.depth <- s.depth + 1
  end

(* [exit] closes only spans that were actually opened: if the flag flipped
   mid-span (depth = 0 here) the exit is dropped rather than corrupting the
   accumulators. *)
let exit s =
  if Atomic.get enabled_flag && s.depth > 0 then begin
    s.depth <- s.depth - 1;
    if s.depth = 0 then begin
      let ns = Int64.to_float (Int64.sub (now_ns ()) s.t0) in
      s.count <- s.count + 1;
      s.total_ns <- s.total_ns +. ns;
      if ns > s.max_ns then s.max_ns <- ns
    end
  end

let time s f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    enter s;
    match f () with
    | v ->
      exit s;
      v
    | exception e ->
      exit s;
      raise e
  end

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter
    (fun _ s ->
      s.count <- 0;
      s.calls <- 0;
      s.total_ns <- 0.;
      s.max_ns <- 0.;
      s.depth <- 0;
      s.t0 <- 0L)
    registry;
  Mutex.unlock registry_lock

type stat = {
  st_name : string;
  st_count : int;
  st_calls : int;
  st_total_ns : float;
  st_mean_ns : float;
  st_max_ns : float;
}

let stats () =
  Mutex.lock registry_lock;
  let names = List.rev !order in
  let out =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt registry name with
        | Some s when s.count > 0 ->
          Some
            {
              st_name = s.name;
              st_count = s.count;
              st_calls = s.calls;
              st_total_ns = s.total_ns;
              st_mean_ns = s.total_ns /. float_of_int s.count;
              st_max_ns = s.max_ns;
            }
        | _ -> None)
      names
  in
  Mutex.unlock registry_lock;
  out

let ns_string ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let pp_report ppf () =
  let ss =
    List.sort (fun a b -> compare b.st_total_ns a.st_total_ns) (stats ())
  in
  match ss with
  | [] -> Fmt.pf ppf "no profiling data (is profiling enabled?)"
  | top :: _ ->
    let denom = if top.st_total_ns > 0. then top.st_total_ns else 1. in
    Fmt.pf ppf "@[<v>%-28s %10s %12s %12s %12s %6s" "scope" "count" "total"
      "mean" "max" "share";
    List.iter
      (fun s ->
        let calls =
          if s.st_calls > s.st_count then
            Printf.sprintf "%d(+%d)" s.st_count (s.st_calls - s.st_count)
          else string_of_int s.st_count
        in
        Fmt.pf ppf "@,%-28s %10s %12s %12s %12s %5.1f%%" s.st_name calls
          (ns_string s.st_total_ns)
          (ns_string s.st_mean_ns)
          (ns_string s.st_max_ns)
          (100. *. s.st_total_ns /. denom))
      ss;
    Fmt.pf ppf "@]"

type gc_delta = {
  d_minor_words : float;
  d_promoted_words : float;
  d_major_words : float;
  d_minor_collections : int;
  d_major_collections : int;
}

(* Minor words come from [Gc.minor_words], which counts this domain's
   allocations up to the current minor-heap pointer; [Gc.quick_stat]'s field
   counts only completed minor collections and adds other domains' work.
   The reads sit inside the two [quick_stat] calls so that neither record is
   counted. *)
let gc_delta f =
  let a = Gc.quick_stat () in
  let wa = Gc.minor_words () in
  let v = f () in
  let wb = Gc.minor_words () in
  let b = Gc.quick_stat () in
  ( v,
    {
      d_minor_words = wb -. wa;
      d_promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
      d_major_words = b.Gc.major_words -. a.Gc.major_words;
      d_minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
      d_major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )
