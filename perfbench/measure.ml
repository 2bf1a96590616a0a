(* Clocks, process counters, a host-speed reference, order statistics and
   the benchmark's own span recorder. Everything here measures the program from outside: it reads
   clocks and /proc, and wraps calls into the library's public functions. *)

let now () = Int64.to_float (Obs.Prof.now_ns ()) /. 1e9

(* ---------- process counters ---------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

(* [VmHWM] is the kernel's peak resident set of this process, in kB. *)
let vmhwm_mb () =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> (
          match float_of_string_opt kb with Some k -> k /. 1024. | None -> acc)
        | [] -> acc)
      | _ -> acc)
    0. (read_lines "/proc/self/status")

(* Writing 5 to clear_refs resets VmHWM to the current RSS, so a process
   that runs several workloads reports each one's own peak. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* CPU seconds of this process plus every child it has reaped. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime
  +. t.Unix.tms_cstime

let cpu_model () =
  List.fold_left
    (fun acc l ->
      match (acc, String.index_opt l ':') with
      | None, Some i when String.trim (String.sub l 0 i) = "model name" ->
        Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> acc)
    None (read_lines "/proc/cpuinfo")
  |> Option.value ~default:"unknown"

let nproc () =
  match
    List.length
      (List.filter (String.starts_with ~prefix:"processor") (read_lines "/proc/cpuinfo"))
  with
  | 0 -> Domain.recommended_domain_count ()
  | n -> n

(* ---------- host speed ---------- *)

(* A fixed amount of integer work on a 64 KB table: no allocation, so the
   heap a workload leaves behind cannot change its duration, and none of this
   repository's code, so a change to the program cannot either. A shared
   2-vCPU Xeon VM was seen to change speed by 2x over minutes without
   reporting steal time; timing this work beside a workload measures the
   host's current speed. *)
let reference_table = Array.make 8192 0

let reference_work () =
  let x = ref 88172645463325252 in
  for _ = 1 to 10_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land 8191 in
    Array.unsafe_set reference_table i (Array.unsafe_get reference_table i + 1)
  done;
  Sys.opaque_identity reference_table.(0)

(* ---------- order statistics ---------- *)

(* Linear interpolation between closest ranks, as numpy's default. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0. xs

(* [n] timings of [reference_work]. *)
let reference_samples n =
  List.init n (fun _ ->
      let t0 = now () in
      ignore (reference_work ());
      now () -. t0)

(* ---------- files ---------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* ---------- spans ----------

   The traced run records one span per public call it makes into a layer:
   cell, topology build, oracle, cache lookup/store, merge and write. A span
   names the span that caused it ([parent], an index into the recording),
   and spans of one cell share the cell key as [id]. Spans stay in memory
   and are written out when the run ends. *)

type span = {
  sp_id : string;
  sp_name : string;
  sp_parent : int;  (** -1 for a root *)
  sp_start : float;
  mutable sp_end : float;
}

let recording = ref false
let buf : span array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []

let push s =
  if !count = Array.length !buf then begin
    let grown = Array.make (max 1024 (2 * !count)) s in
    Array.blit !buf 0 grown 0 !count;
    buf := grown
  end;
  !buf.(!count) <- s;
  incr count;
  !count - 1

let span ?id name f =
  if not !recording then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let id =
      match id with
      | Some id -> id
      | None -> if parent < 0 then "" else !buf.(parent).sp_id
    in
    let s =
      { sp_id = id; sp_name = name; sp_parent = parent; sp_start = now (); sp_end = nan }
    in
    stack := push s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.sp_end <- now ();
        stack := List.tl !stack)
      f
  end

let start_recording () =
  buf := [||];
  count := 0;
  stack := [];
  recording := true

(* Stop recording and return the spans in start order with each one's self
   time: its duration minus the part of it that its children's intervals
   cover. *)
let stop_recording () =
  recording := false;
  let a = Array.sub !buf 0 !count in
  let children = Array.make (Array.length a) [] in
  Array.iteri
    (fun i s -> if s.sp_parent >= 0 then children.(s.sp_parent) <- i :: children.(s.sp_parent))
    a;
  let self i =
    let s = a.(i) in
    let ivs =
      List.sort compare
        (List.map (fun c -> (a.(c).sp_start, a.(c).sp_end)) children.(i))
    in
    let covered, _ =
      List.fold_left
        (fun (acc, reach) (lo, hi) ->
          let lo = Float.max lo reach in
          if hi > lo then (acc +. (hi -. lo), hi) else (acc, reach))
        (0., s.sp_start) ivs
    in
    s.sp_end -. s.sp_start -. covered
  in
  Array.to_list (Array.mapi (fun i s -> (s, self i)) a)

let span_json (s, self_s) =
  Obs.Json.Obj
    [
      ("id", Obs.Json.String s.sp_id);
      ("name", Obs.Json.String s.sp_name);
      ("parent", Obs.Json.Int s.sp_parent);
      ("start_s", Obs.Json.Float s.sp_start);
      ("dur_s", Obs.Json.Float (s.sp_end -. s.sp_start));
      ("self_s", Obs.Json.Float self_s);
    ]

let span_total name recorded =
  List.fold_left
    (fun acc (s, _) ->
      if s.sp_name = name then acc +. (s.sp_end -. s.sp_start) else acc)
    0. recorded
