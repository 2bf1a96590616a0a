(* Golden-trace regression: fixed-seed scenarios must emit byte-for-byte the
   JSONL traces committed under [golden/]. Any change to event content,
   ordering, severity classification, JSON encoding, or the simulation's
   deterministic behavior shows up here as a diff.

   Four cells are covered:
   - a 3x3 RIP failure scenario (the original seed cell);
   - a 4x4 DBF cell with a CBR-heavy traffic window, pinning the per-packet
     injection times and delivery order of the flow pacer (the engine's
     batched CBR path must emit exactly these sends and arrivals);
   - a 3x3 BGP-3 cell with 5% control loss under the reliable control
     transport, fast reroute on, a pinned healing failure and a flap on a
     different link: the Rtx, FRR and fault-schedule event streams;
   - a 4x4 DBF go-back-N transfer crossing a failure: the transfer's sends,
     deliveries, retransmissions and drops.

   The [Sched] category is deliberately excluded (its [cpu_s] field is
   wall-clock) and the severity floor is [Info] (per-hop forwarding and timer
   fires are volume, not behavior).

   To regenerate after an intentional behavior change:
     GOLDEN_REGEN=1 dune test test/test_golden.exe
   then review the diff and commit it. *)

let rip_golden_path = "golden/rip_3x3.jsonl"

let cbr_golden_path = "golden/dbf_cbr_4x4.jsonl"

let bgp_golden_path = "golden/bgp3_rtx_frr_3x3.jsonl"

let transfer_golden_path = "golden/dbf_transfer_4x4.jsonl"

module E = Convergence.Engine_registry
module R = Convergence.Runner

(* The JSONL a run writes through a Data/Control/Env, Info-floor trace. *)
let traced run =
  let buf = Buffer.create 4096 in
  let sink =
    Obs.Sink.jsonl_writer (fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
  in
  let trace =
    Obs.Trace.create
      ~categories:[ Obs.Event.Data; Obs.Event.Control; Obs.Event.Env ]
      ~min_severity:Obs.Event.Info sink
  in
  run trace;
  Obs.Trace.close trace;
  Buffer.contents buf

let trace_of cfg engine = traced (fun trace -> ignore (E.run ~trace cfg engine))

let rip_trace () =
  let cfg =
    {
      Convergence.Config.quick with
      rows = 3;
      cols = 3;
      degree = 4;
      send_rate_pps = 5.;
      traffic_start = 30.;
      warmup = 30.;
      failure_time = 35.;
      sim_end = 60.;
      seed = 7;
    }
  in
  trace_of cfg Convergence.Engine_registry.rip

(* A CBR-heavy cell: 40 pps through a 4x4 mesh with a mid-run failure. At
   this rate the flow pacer is the dominant event source, so the trace pins
   every injection timestamp and delivery the batched-CBR path produces. *)
let cbr_trace () =
  let cfg =
    {
      Convergence.Config.quick with
      rows = 4;
      cols = 4;
      degree = 4;
      send_rate_pps = 40.;
      traffic_start = 20.;
      warmup = 20.;
      failure_time = 25.;
      sim_end = 35.;
      seed = 11;
    }
  in
  trace_of cfg Convergence.Engine_registry.dbf

(* BGP-3 with every optional layer engaged at once. The failure (0-1, on the
   0 -> 8 path, healed after 10 s) and the flap (4-5, two 2 s cycles) are
   distinct links, so each link has a single down cause at any time. *)
let bgp_trace () =
  let cfg =
    {
      Convergence.Config.quick with
      rows = 3;
      cols = 3;
      degree = 4;
      send_rate_pps = 5.;
      traffic_start = 30.;
      warmup = 30.;
      failure_time = 35.;
      sim_end = 60.;
      seed = 3;
    }
  in
  let faults =
    {
      (Fault.Spec.control_loss 0.05) with
      Fault.Spec.flaps =
        [
          Fault.Schedule.flap ~link:(Fault.Schedule.Edge (4, 5)) ~start:40.
            ~cycles:2 ~down:2. ~up:2. ();
        ];
    }
  in
  let flows = [ { R.default_flow with flow_src = Some 0; flow_dst = Some 8 } ] in
  let failures =
    [ { R.fail_at = 35.; target = R.Link (0, 1); heal_after = Some 10. } ]
  in
  traced (fun trace ->
      ignore (E.run_multi ~faults ~frr:true ~trace ~flows ~failures cfg E.bgp3))

(* A 300-packet, window-8 DBF transfer whose path fails 2 s in. *)
let transfer_trace () =
  let cfg =
    {
      Convergence.Config.quick with
      rows = 4;
      cols = 4;
      degree = 4;
      traffic_start = 20.;
      warmup = 20.;
      failure_time = 22.;
      sim_end = 40.;
      seed = 11;
    }
  in
  let flow =
    {
      R.default_flow with
      flow_traffic =
        R.Transfer
          { R.default_transport with window = 8; rto = 0.5; total_packets = 300 };
    }
  in
  let failures =
    [ { R.fail_at = 22.; target = R.Flow_path 0; heal_after = None } ]
  in
  traced (fun trace ->
      ignore (E.run_multi ~trace ~flows:[ flow ] ~failures cfg E.dbf))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden ~golden_path actual =
  match Sys.getenv_opt "GOLDEN_REGEN" with
  | Some dir ->
    (* Regeneration mode: GOLDEN_REGEN names the destination directory (use
       an absolute path into the source tree — tests run inside _build). *)
    let dir = if dir = "1" then Filename.dirname golden_path else dir in
    let target = Filename.concat dir (Filename.basename golden_path) in
    Rcutil.Atomic_file.write_string ~path:target actual;
    Alcotest.failf "regenerated %s (%d bytes); review and commit it" target
      (String.length actual)
  | None ->
    let expected = read_file golden_path in
    if String.equal expected actual then ()
    else begin
      (* Byte comparison failed: locate the first diverging line so the
         failure is readable without an external diff. *)
      let el = String.split_on_char '\n' expected in
      let al = String.split_on_char '\n' actual in
      let rec first_diff i = function
        | e :: es, a :: as_ ->
          if String.equal e a then first_diff (i + 1) (es, as_) else (i, e, a)
        | e :: _, [] -> (i, e, "<trace ended>")
        | [], a :: _ -> (i, "<golden ended>", a)
        | [], [] -> (i, "", "")
      in
      let line, e, a = first_diff 1 (el, al) in
      Alcotest.failf
        "trace diverges from %s at line %d@.  golden: %s@.  actual: %s@.(%d \
         vs %d lines; GOLDEN_REGEN=1 to regenerate after an intentional \
         change)"
        golden_path line e a (List.length el) (List.length al)
    end

let test_rip_golden () = check_golden ~golden_path:rip_golden_path (rip_trace ())

let test_cbr_golden () = check_golden ~golden_path:cbr_golden_path (cbr_trace ())

let test_bgp_golden () = check_golden ~golden_path:bgp_golden_path (bgp_trace ())

let test_transfer_golden () =
  check_golden ~golden_path:transfer_golden_path (transfer_trace ())

let test_golden_replays path () =
  (* The committed trace must round-trip through the replay decoder with no
     skipped lines and internally consistent packet accounting. *)
  let records, stats = Obs.Replay.of_string (read_file path) in
  Alcotest.(check int) "no unparseable lines" 0 stats.Obs.Replay.skipped;
  Alcotest.(check bool) "non-empty" true (stats.Obs.Replay.parsed > 0);
  let totals = Obs.Replay.totals records in
  Alcotest.(check bool) "conservation" true (Obs.Replay.in_flight totals >= 0)

let () =
  Alcotest.run "golden"
    [
      ( "rip 3x3",
        [
          Alcotest.test_case "trace matches byte-for-byte" `Quick test_rip_golden;
          Alcotest.test_case "trace replays cleanly" `Quick
            (test_golden_replays rip_golden_path);
        ] );
      ( "dbf cbr 4x4",
        [
          Alcotest.test_case "trace matches byte-for-byte" `Quick test_cbr_golden;
          Alcotest.test_case "trace replays cleanly" `Quick
            (test_golden_replays cbr_golden_path);
        ] );
      ( "bgp-3 rtx frr 3x3",
        [
          Alcotest.test_case "trace matches byte-for-byte" `Quick test_bgp_golden;
          Alcotest.test_case "trace replays cleanly" `Quick
            (test_golden_replays bgp_golden_path);
        ] );
      ( "dbf transfer 4x4",
        [
          Alcotest.test_case "trace matches byte-for-byte" `Quick
            test_transfer_golden;
          Alcotest.test_case "trace replays cleanly" `Quick
            (test_golden_replays transfer_golden_path);
        ] );
    ]
