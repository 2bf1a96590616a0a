(* ---------- CRC-32 (IEEE reflected, as in gzip/zlib) ---------- *)

(* Built at module initialisation, not lazily: pool domains store cache
   entries concurrently, and forcing one lazy value from two domains at
   once raises [Lazy.Undefined]. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := crc_table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ---------- line framing ---------- *)

(* [{"crc":"xxxxxxxx","entry":<entry>}] with the CRC computed over the
   literal bytes of [<entry>]. The frame is fixed-offset on purpose: the
   reader recovers the entry bytes by slicing, not by JSON-parsing, so the
   checksum protects exactly what was written. *)

let frame_prefix = {|{"crc":"|}

let frame_mid = {|","entry":|}

let entry_offset = String.length frame_prefix + 8 + String.length frame_mid

let frame entry = Printf.sprintf "{\"crc\":\"%08x\",\"entry\":%s}\n" (crc32 entry) entry

let unframe line =
  let len = String.length line in
  if
    len < entry_offset + 1
    || not (String.starts_with ~prefix:frame_prefix line)
    || String.sub line (String.length frame_prefix + 8) (String.length frame_mid)
       <> frame_mid
    || line.[len - 1] <> '}'
  then Error "malformed record"
  else
    let crc_hex = String.sub line (String.length frame_prefix) 8 in
    let entry = String.sub line entry_offset (len - entry_offset - 1) in
    match int_of_string_opt ("0x" ^ crc_hex) with
    | None -> Error "malformed record"
    | Some crc ->
      if crc <> crc32 entry then Error "CRC mismatch"
      else (
        match Obs.Json.of_string_opt entry with
        | None -> Error "record entry is not valid JSON"
        | Some j -> Ok j)
