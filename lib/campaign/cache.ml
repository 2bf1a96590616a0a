type context = {
  git_sha : string;
  family : string;
  mode : string;
  runs : int option;
  degrees : int list option;
  seed : int option;
}

type t = {
  dir : string;
  ctx : context;
  mutable hits : int;
  mutable misses : int;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ~dir ctx =
  mkdir_p dir;
  { dir; ctx; hits = 0; misses = 0 }

(* The code that computes a cell is the running executable, so its digest
   is part of every key. Hashing the binary costs milliseconds, so it is
   done once per process, at the first key rather than in [open_]; domains
   that race here compute the same value. An executable that cannot be read
   gets a per-process nonce: its entries are then reused within this
   process only, never by another build. *)
let exe_digest = Atomic.make None

let executable_digest () =
  match Atomic.get exe_digest with
  | Some d -> d
  | None ->
    let d =
      try Digest.to_hex (Digest.file Sys.executable_name)
      with Sys_error _ ->
        Printf.sprintf "unreadable-%d-%.6f" (Unix.getpid ()) (Unix.gettimeofday ())
    in
    Atomic.set exe_digest (Some d);
    d

(* The preimage spells out every input the cell result depends on, in a
   fixed order, with unambiguous encodings for the optional overrides
   ("-" for absent, so runs=None and runs=Some anything never collide).
   [Artifact.version] is the schema the cached cell is serialized in: a
   schema bump must invalidate the cache wholesale. *)
let key t ~protocol ~degree ~seed =
  let opt_int = function None -> "-" | Some i -> string_of_int i in
  let opt_degrees = function
    | None -> "-"
    | Some ds -> String.concat "," (List.map string_of_int ds)
  in
  Printf.sprintf
    "rcsim-cell-cache v2 artifact-v%d sha=%s exe=%s family=%s mode=%s runs=%s \
     degrees=%s seed=%s cell=%s:%d:%d"
    Artifact.version t.ctx.git_sha (executable_digest ()) t.ctx.family
    t.ctx.mode (opt_int t.ctx.runs)
    (opt_degrees t.ctx.degrees)
    (opt_int t.ctx.seed)
    protocol degree seed

let path_of t preimage =
  Filename.concat t.dir (Digest.to_hex (Digest.string preimage) ^ ".json")

let entry_kind = "rcsim-cache-cell"

(* Every failure — missing file, torn or corrupt bytes, CRC mismatch,
   foreign kind, preimage drift, axis disagreement — is a miss. The cache
   may only ever save work, never fail a campaign or swap in a wrong
   cell. *)
let find t ~protocol ~degree ~seed =
  let preimage = key t ~protocol ~degree ~seed in
  let entry =
    match
      In_channel.with_open_bin (path_of t preimage) In_channel.input_all
    with
    | exception Sys_error _ -> None
    | raw -> (
      let line =
        match String.index_opt raw '\n' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      match Frame.unframe line with
      | Error _ -> None
      | Ok j -> (
        let str name =
          Option.bind (Obs.Json.member name j) Obs.Json.to_string_val
        in
        match (str "kind", str "key") with
        | Some k, Some stored
          when k = entry_kind && String.equal stored preimage -> (
          match Cell_result.of_envelope j with
          | Ok c when Cell_result.key c = (protocol, degree, seed) -> Some c
          | _ -> None)
        | _ -> None))
  in
  (match entry with
  | Some _ -> t.hits <- t.hits + 1
  | None -> t.misses <- t.misses + 1);
  entry

let store t (c : Cell_result.t) =
  let protocol, degree, seed = Cell_result.key c in
  let preimage = key t ~protocol ~degree ~seed in
  let entry : Obs.Json.t =
    Obj
      (("kind", String entry_kind)
      :: ("key", String preimage)
      :: Cell_result.envelope_fields c)
  in
  (* Atomic publication; any I/O error (read-only dir, full disk) is
     swallowed — a cache that cannot write is just a cache that never
     hits. *)
  try
    Rcutil.Atomic_file.write_string ~path:(path_of t preimage)
      (Frame.frame (Obs.Json.to_string entry))
  with Sys_error _ | Unix.Unix_error _ -> ()

let stats t = (t.hits, t.misses)
