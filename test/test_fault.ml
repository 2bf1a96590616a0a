(* Tests for the fault-injection substrate: the Rtx reliable-transport state
   machine under scripted loss, wire transparency of the transport at zero
   loss, end-to-end BGP behavior under injected control-plane loss, campaign
   graceful degradation (watchdog + quarantine), artifact schema v2, and the
   replay hardening (opaque lines, link-outage audit). *)

module Rtx = Fault.Rtx
module Sched = Dessim.Scheduler

(* ---------- Rtx harness: two endpoints over a scripted lossy wire ----------

   [a] sends application messages toward [b]; every segment crosses the wire
   with a fixed one-way delay unless the scripted drop predicate claims it.
   Predicates see the transmission index (0-based, per direction), which is
   how tests drop "the first copy of segment 0" and keep the retransmission. *)

type harness = {
  sched : Sched.t;
  a : string Rtx.t;
  b : string Rtx.t;
  delivered : string list ref;  (* at b, in delivery order *)
  a_events : Rtx.event list ref;  (* oldest first *)
  a_resets : int list ref;  (* epochs given to a's on_reset *)
}

let harness ?config ?(delay = 0.05) ?(drop_data = fun _ -> false)
    ?(drop_ack = fun _ -> false) () =
  let sched = Sched.create () in
  let delivered = ref [] and a_events = ref [] and a_resets = ref [] in
  let a_ref = ref None and b_ref = ref None in
  let data_tx = ref 0 and ack_tx = ref 0 in
  let wire dst seg =
    ignore
      (Sched.after sched ~delay (fun () ->
           match !dst with Some peer -> Rtx.on_segment peer seg | None -> ()))
  in
  let a =
    Rtx.create ?config ~sched
      ~send:(fun seg ->
        let n = !data_tx in
        incr data_tx;
        if not (drop_data n) then wire b_ref seg)
      ~deliver:(fun _ -> ())
      ~on_reset:(fun ~epoch -> a_resets := epoch :: !a_resets)
      ~on_event:(fun e -> a_events := e :: !a_events)
      ()
  in
  let b =
    Rtx.create ?config ~sched
      ~send:(fun seg ->
        let n = !ack_tx in
        incr ack_tx;
        if not (drop_ack n) then wire a_ref seg)
      ~deliver:(fun m -> delivered := m :: !delivered)
      ~on_reset:(fun ~epoch:_ -> ())
      ~on_event:(fun _ -> ())
      ()
  in
  a_ref := Some a;
  b_ref := Some b;
  {
    sched;
    a;
    b;
    delivered;
    a_events = (a_events : Rtx.event list ref);
    a_resets;
  }

let delivered h = List.rev !(h.delivered)

let events h = List.rev !(h.a_events)

let test_rtx_in_order_delivery () =
  let h = harness () in
  Rtx.send h.a "m0";
  Rtx.send h.a "m1";
  Rtx.send h.a "m2";
  Sched.run h.sched;
  Alcotest.(check (list string)) "in order" [ "m0"; "m1"; "m2" ] (delivered h);
  let sa = Rtx.stats h.a and sb = Rtx.stats h.b in
  Alcotest.(check int) "sent" 3 sa.Rtx.s_sent;
  Alcotest.(check int) "delivered" 3 sb.Rtx.s_delivered;
  Alcotest.(check int) "no retransmissions" 0 sa.Rtx.s_retransmissions;
  Alcotest.(check int) "fully acked" 0 (Rtx.outstanding h.a)

let test_rtx_out_of_order_buffering () =
  (* Drive a receiver directly: seq 1 arrives before seq 0 (reordered wire).
     Delivery must still be in order, and each arrival re-acks cumulatively. *)
  let sched = Sched.create () in
  let got = ref [] and acks = ref [] in
  let b =
    Rtx.create ~sched
      ~send:(fun seg ->
        match seg with
        | Rtx.Seg_ack { ack; _ } -> acks := ack :: !acks
        | Rtx.Seg_data _ -> ())
      ~deliver:(fun m -> got := m :: !got)
      ~on_reset:(fun ~epoch:_ -> ())
      ~on_event:(fun _ -> ())
      ()
  in
  Rtx.on_segment b (Rtx.Seg_data { epoch = 0; seq = 1; msg = "m1" });
  Alcotest.(check (list string)) "gap holds delivery" [] (List.rev !got);
  Rtx.on_segment b (Rtx.Seg_data { epoch = 0; seq = 0; msg = "m0" });
  Alcotest.(check (list string))
    "drained in order" [ "m0"; "m1" ] (List.rev !got);
  Alcotest.(check (list int)) "cumulative acks" [ 0; 2 ] (List.rev !acks)

let test_rtx_retransmit_recovers_loss () =
  (* Drop only the first copy of the first segment: one timeout, one
     retransmission, then normal delivery. *)
  let h = harness ~drop_data:(fun n -> n = 0) () in
  Rtx.send h.a "m0";
  Sched.run h.sched;
  Alcotest.(check (list string)) "recovered" [ "m0" ] (delivered h);
  let s = Rtx.stats h.a in
  Alcotest.(check int) "one timeout" 1 s.Rtx.s_timeouts;
  Alcotest.(check int) "one retransmission" 1 s.Rtx.s_retransmissions;
  Alcotest.(check int) "no reset" 0 s.Rtx.s_resets;
  match events h with
  | [ Rtx.Timeout { attempt = 1; _ }; Rtx.Retransmit { seq = 0; attempt = 1 } ]
    ->
    ()
  | es -> Alcotest.failf "unexpected event sequence (%d events)" (List.length es)

let test_rtx_backoff_and_retry_cap_reset () =
  (* Total blackout: the timer backs off exponentially and the retry cap
     tears the session down, bumping the epoch. *)
  let h = harness ~drop_data:(fun _ -> true) () in
  Rtx.send h.a "m0";
  Sched.run h.sched;
  let s = Rtx.stats h.a in
  (* default config: max_retries 6, so attempts 1..6 retransmit and the 7th
     timeout resets. *)
  Alcotest.(check int) "timeouts" 7 s.Rtx.s_timeouts;
  Alcotest.(check int) "retransmissions" 6 s.Rtx.s_retransmissions;
  Alcotest.(check int) "one reset" 1 s.Rtx.s_resets;
  Alcotest.(check (list int)) "reset epoch" [ 1 ] !(h.a_resets);
  Alcotest.(check bool) "session stays open" true (Rtx.is_up h.a);
  Alcotest.(check int) "nothing outstanding after reset" 0 (Rtx.outstanding h.a);
  let rtos =
    List.filter_map
      (function Rtx.Timeout { rto; _ } -> Some rto | _ -> None)
      (events h)
  in
  (* 1, 2, 4, 8, 16, 32, 60: doubling from rto_init, capped at rto_max. *)
  Alcotest.(check (list (float 1e-9)))
    "exponential backoff" [ 1.; 2.; 4.; 8.; 16.; 32.; 60. ] rtos

let test_rtx_karn_ignores_retransmitted_samples () =
  (* rto_init 0.5 and a 0.05 s wire: the first segment's only ACK matches a
     retransmitted copy, so Karn's rule must skip the sample and leave the
     backed-off RTO (1.0) in place. A later clean exchange then feeds the
     estimator: sample 0.1 -> srtt 0.1, rttvar 0.05, rto 0.3. *)
  let config =
    { Rtx.default_config with Rtx.rto_init = 0.5; rto_min = 0.1 }
  in
  let h = harness ~config ~drop_data:(fun n -> n = 0) () in
  let mid_rto = ref 0. in
  Rtx.send h.a "m0";
  ignore
    (Sched.after h.sched ~delay:5.0 (fun () ->
         mid_rto := Rtx.rto h.a;
         Rtx.send h.a "m1"));
  Sched.run h.sched;
  Alcotest.(check (list string)) "both delivered" [ "m0"; "m1" ] (delivered h);
  Alcotest.(check (float 1e-9)) "Karn: no sample from retransmit" 1.0 !mid_rto;
  Alcotest.(check (float 1e-9)) "clean sample adapts rto" 0.3 (Rtx.rto h.a)

let test_rtx_reorder_buffer_rtt_immunity () =
  (* A burst whose first segment is lost strands the rest in the receiver's
     reorder buffer; when the retransmission fills the gap, one cumulative
     ACK covers segments whose (send -> ack) span includes the entire
     recovery wait. Feeding those spans into Jacobson's estimator inflates
     SRTT by the recovery time — the RTO then pins at the backed-off value
     and every later loss takes longer to repair (Jain's timeout
     divergence). The estimator must time only the gap-filling segment,
     which Karn's rule here skips outright (it was retransmitted). *)
  let config =
    { Rtx.default_config with Rtx.rto_init = 0.5; rto_min = 0.1 }
  in
  let h = harness ~config ~drop_data:(fun n -> n = 0) () in
  let mid_rto = ref 0. in
  Rtx.send h.a "m0";
  Rtx.send h.a "m1";
  Rtx.send h.a "m2";
  ignore
    (Sched.after h.sched ~delay:5.0 (fun () ->
         mid_rto := Rtx.rto h.a;
         Rtx.send h.a "m3"));
  Sched.run h.sched;
  Alcotest.(check (list string))
    "drained in order" [ "m0"; "m1"; "m2"; "m3" ] (delivered h);
  (* The buffered segments' ~1.1 s spans must not reach the estimator: the
     RTO after recovery is exactly the once-backed-off initial (0.5 -> 1.0),
     not an SRTT poisoned by buffer-wait samples. *)
  Alcotest.(check (float 1e-9)) "no reorder-buffer samples" 1.0 !mid_rto;
  (* The clean m3 exchange then feeds the estimator: sample 0.1 -> srtt 0.1,
     rttvar 0.05, rto 0.3 — same arithmetic as the Karn test above. *)
  Alcotest.(check (float 1e-9)) "clean sample adapts rto" 0.3 (Rtx.rto h.a)

let test_rtx_backoff_collapses_on_progress () =
  (* Once the estimator holds a valid SRTT, an ACK that advances the window
     is proof the path is alive: the exponentially backed-off RTO must
     collapse back to srtt + 4 * rttvar instead of pacing the next recovery
     at the blackout's cadence. *)
  let config =
    { Rtx.default_config with Rtx.rto_init = 0.5; rto_min = 0.1 }
  in
  (* tx 0 is m0's clean exchange; txs 1-3 are m1's first copy and two
     retransmissions, all dropped; tx 4 (third retransmission) survives. *)
  let h = harness ~config ~drop_data:(fun n -> 1 <= n && n <= 3) () in
  Rtx.send h.a "m0";
  ignore (Sched.after h.sched ~delay:1.0 (fun () -> Rtx.send h.a "m1"));
  Sched.run h.sched;
  Alcotest.(check (list string)) "all delivered" [ "m0"; "m1" ] (delivered h);
  let s = Rtx.stats h.a in
  Alcotest.(check int) "three timeouts" 3 s.Rtx.s_timeouts;
  (* m0's sample set srtt 0.1 / rttvar 0.05 (rto 0.3); the blackout backed
     off 0.3 -> 0.6 -> 1.2 -> 2.4; m1's recovery ACK matched a retransmitted
     copy, so no new sample — yet the RTO must return to the estimator's
     0.3, not stay at 2.4. *)
  Alcotest.(check (float 1e-9)) "backoff collapsed" 0.3 (Rtx.rto h.a)

let test_rtx_epoch_staleness () =
  (* A receiver that adopted epoch 1 must drop replayed epoch-0 segments
     without delivering or re-acking them. *)
  let sched = Sched.create () in
  let got = ref [] and acks = ref 0 in
  let b =
    Rtx.create ~sched
      ~send:(fun _ -> incr acks)
      ~deliver:(fun m -> got := m :: !got)
      ~on_reset:(fun ~epoch:_ -> ())
      ~on_event:(fun _ -> ())
      ()
  in
  Rtx.on_segment b (Rtx.Seg_data { epoch = 1; seq = 0; msg = "new" });
  Rtx.on_segment b (Rtx.Seg_data { epoch = 0; seq = 0; msg = "old" });
  Alcotest.(check (list string)) "stale dropped" [ "new" ] (List.rev !got);
  Alcotest.(check int) "stale not re-acked" 1 !acks

let test_rtx_link_down_teardown () =
  let dropping = ref true in
  let h = harness ~drop_data:(fun _ -> !dropping) () in
  Rtx.send h.a "m0";
  Rtx.send h.a "m1";
  Alcotest.(check int) "unacked before teardown" 2 (Rtx.outstanding h.a);
  Rtx.link_down h.a;
  Alcotest.(check bool) "down" false (Rtx.is_up h.a);
  Alcotest.(check int) "teardown discards unacked" 0 (Rtx.outstanding h.a);
  Rtx.send h.a "lost-while-down";
  Alcotest.(check int)
    "sends while down are discarded" 2 (Rtx.stats h.a).Rtx.s_sent;
  Rtx.link_up h.a;
  Alcotest.(check bool) "up again" true (Rtx.is_up h.a);
  dropping := false;
  Rtx.send h.a "fresh";
  Sched.run h.sched;
  (* The re-established session runs under a higher epoch; the receiver
     adopts it and delivery restarts from sequence zero. *)
  Alcotest.(check (list string)) "fresh epoch delivers" [ "fresh" ] (delivered h)

let test_rtx_config_validation () =
  let bad cfg = Result.is_error (Rtx.validate_config cfg) in
  Alcotest.(check bool)
    "default valid" true
    (Result.is_ok (Rtx.validate_config Rtx.default_config));
  Alcotest.(check bool)
    "rto_min > rto_max" true
    (bad { Rtx.default_config with Rtx.rto_min = 5.; rto_max = 1. });
  Alcotest.(check bool)
    "backoff < 1" true
    (bad { Rtx.default_config with Rtx.backoff = 0.5 });
  Alcotest.(check bool)
    "max_retries 0" true
    (bad { Rtx.default_config with Rtx.max_retries = 0 })

(* NaN compares false with everything, so a check written as "reject if
   p < 0 or p > 1" lets it through: a NaN loss once ran as a faulted run
   that injected nothing. Every probability, duration and instant must
   reject it, and so must the spec the CLI builds from [--loss]. *)
let test_validation_rejects_nan () =
  let bad = Result.is_error in
  let noise = { Fault.Perturb.none with Fault.Perturb.drop = 0.1 } in
  Alcotest.(check bool) "finite noise valid" false (bad (Fault.Perturb.validate noise));
  List.iter
    (fun (name, p) -> Alcotest.(check bool) name true (bad (Fault.Perturb.validate p)))
    [
      ("drop nan", { noise with Fault.Perturb.drop = nan });
      ("corrupt nan", { noise with Fault.Perturb.corrupt = nan });
      ("duplicate nan", { noise with Fault.Perturb.duplicate = nan });
      ("jitter nan", { noise with Fault.Perturb.jitter = nan });
      ("drop 1.5", { noise with Fault.Perturb.drop = 1.5 });
    ];
  Alcotest.(check bool)
    "control_loss nan" true
    (bad (Fault.Spec.validate (Fault.Spec.control_loss nan)));
  let flap = Fault.Schedule.flap ~start:10. ~cycles:2 ~down:1. ~up:2. () in
  Alcotest.(check bool) "finite flap valid" false (bad (Fault.Schedule.validate_flap flap));
  List.iter
    (fun (name, f) -> Alcotest.(check bool) name true (bad (Fault.Schedule.validate_flap f)))
    [
      ("flap_start nan", { flap with Fault.Schedule.flap_start = nan });
      ("down_min nan", { flap with Fault.Schedule.down_min = nan });
      ("down_max nan", { flap with Fault.Schedule.down_max = nan });
      ("up_min nan", { flap with Fault.Schedule.up_min = nan });
      ("up_max nan", { flap with Fault.Schedule.up_max = nan });
    ];
  let crash =
    { Fault.Schedule.crash_node = 0; crash_at = 5.; reboot_after = Some 3. }
  in
  Alcotest.(check bool) "finite crash valid" false (bad (Fault.Schedule.validate_crash crash));
  Alcotest.(check bool)
    "crash_at nan" true
    (bad (Fault.Schedule.validate_crash { crash with Fault.Schedule.crash_at = nan }));
  Alcotest.(check bool)
    "reboot_after nan" true
    (bad
       (Fault.Schedule.validate_crash
          { crash with Fault.Schedule.reboot_after = Some nan }))

(* ---------- end-to-end: transport transparency and loss survival ---------- *)

module C = Convergence.Config
module E = Convergence.Engine_registry
module M = Convergence.Metrics

(* The same 3x3 quick scenario the golden trace uses, under BGP. *)
let quick_cfg seed =
  {
    C.quick with
    C.rows = 3;
    cols = 3;
    degree = 4;
    send_rate_pps = 5.;
    traffic_start = 30.;
    warmup = 30.;
    failure_time = 35.;
    sim_end = 60.;
    seed;
  }

let trace_of ?faults cfg engine =
  let buf = Buffer.create 4096 in
  let sink =
    Obs.Sink.jsonl_writer (fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
  in
  (* [Sched] excluded: rtx timers legitimately change queue-depth gauges and
     cpu_s is wall-clock. Everything observable on the wire is compared. *)
  let trace =
    Obs.Trace.create
      ~categories:[ Obs.Event.Data; Obs.Event.Control; Obs.Event.Env ]
      ~min_severity:Obs.Event.Info sink
  in
  let r = E.run ?faults ~trace cfg engine in
  Obs.Trace.close trace;
  (r, Buffer.contents buf)

let test_rtx_wire_transparent_at_zero_loss () =
  (* Enabling the reliable transport with no loss must not change anything
     observable: same events, same bytes, same metrics. This is the contract
     that lets the faults campaign put every protocol behind the transport
     without forking the paper's numbers. *)
  let faults = { Fault.Spec.none with Fault.Spec.rtx = Some Rtx.default_config } in
  List.iter
    (fun seed ->
      let r_off, t_off = trace_of (quick_cfg seed) E.bgp in
      let r_on, t_on = trace_of ~faults (quick_cfg seed) E.bgp in
      Alcotest.(check string)
        (Printf.sprintf "trace bytes identical (seed %d)" seed)
        t_off t_on;
      Alcotest.(check int)
        (Printf.sprintf "delivered identical (seed %d)" seed)
        (One_flow.get r_off).M.f_delivered (One_flow.get r_on).M.f_delivered)
    [ 7; 11 ]

(* A 4x4 mesh where seed 18 makes the difference stark: at 10% control-plane
   loss a lost withdrawal blackholes the no-rtx run (it keeps forwarding into
   the failed link), while the reliable transport retransmits through the
   loss and delivery stays near-perfect. Found by scanning seeds; the run is
   deterministic, so the contrast is stable. *)
let loss_cfg =
  {
    C.quick with
    C.rows = 4;
    cols = 4;
    degree = 4;
    send_rate_pps = 20.;
    traffic_start = 80.;
    warmup = 80.;
    failure_time = 90.;
    sim_end = 300.;
    seed = 18;
  }

let test_bgp_converges_through_loss_with_rtx () =
  let rtx_sent = ref 0 in
  let mon =
    Obs.Sink.callback (fun r ->
        match r.Obs.Sink.event with
        | Obs.Event.Rtx_sent _ -> incr rtx_sent
        | _ -> ())
  in
  let metrics = Obs.Registry.create () in
  let r =
    E.run
      ~faults:(Fault.Spec.control_loss 0.1)
      ~metrics ~monitors:[ mon ] loss_cfg E.bgp
  in
  let ratio = M.flow_delivery_ratio (One_flow.get r) in
  Alcotest.(check bool)
    (Printf.sprintf "delivery survives loss (%.3f)" ratio)
    true (ratio > 0.95);
  Alcotest.(check bool)
    "retransmissions observable in the event stream" true (!rtx_sent > 0);
  (match Obs.Registry.lookup metrics "rtx.retransmissions" with
  | Some (Obs.Registry.Gauge_value v) ->
    Alcotest.(check bool) "rtx gauge positive" true (v > 0.)
  | _ -> Alcotest.fail "rtx.retransmissions gauge missing");
  match Obs.Registry.lookup metrics "fault.injected_ctrl_drops" with
  | Some (Obs.Registry.Gauge_value v) ->
    Alcotest.(check bool) "loss actually injected" true (v > 0.)
  | _ -> Alcotest.fail "fault.injected_ctrl_drops gauge missing"

let test_bgp_stalls_through_loss_without_rtx () =
  (* The ~rtx:false control: same world, same loss stream, idealized (no
     retransmission) transport. A lost critical update is never repaired and
     the flow blackholes. *)
  let r =
    E.run ~faults:(Fault.Spec.control_loss ~rtx:false 0.1) loss_cfg E.bgp
  in
  let ratio = M.flow_delivery_ratio (One_flow.get r) in
  Alcotest.(check bool)
    (Printf.sprintf "delivery collapses without rtx (%.3f)" ratio)
    true (ratio < 0.5)

(* ---------- flap schedule + offline audit ---------- *)

let test_flap_schedule_audited_by_link_report () =
  (* Pin a 2-cycle, 2 s down / 2 s up flap on link 0-1, run with only the
     flap (no paper failure), and audit the trace offline: exactly two
     finished outage episodes on 0-1, each exactly the scheduled 2 s. *)
  let faults =
    {
      Fault.Spec.none with
      Fault.Spec.flaps =
        [
          Fault.Schedule.flap
            ~link:(Fault.Schedule.Edge (0, 1))
            ~start:40. ~cycles:2 ~down:2. ~up:2. ();
        ];
    }
  in
  let buf = Buffer.create 1024 in
  let sink =
    Obs.Sink.jsonl_writer (fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
  in
  let trace =
    Obs.Trace.create ~categories:[ Obs.Event.Env ]
      ~min_severity:Obs.Event.Info sink
  in
  let _ =
    E.run_multi ~faults ~trace
      ~flows:[ Convergence.Runner.default_flow ]
      ~failures:[] (quick_cfg 7) E.rip
  in
  Obs.Trace.close trace;
  let records, stats = Obs.Replay.of_string (Buffer.contents buf) in
  Alcotest.(check int) "trace parses" 0 stats.Obs.Replay.skipped;
  let episodes =
    List.filter
      (fun e -> e.Obs.Replay.lk_u = 0 && e.Obs.Replay.lk_v = 1)
      (Obs.Replay.link_report records)
  in
  Alcotest.(check int) "two episodes" 2 (List.length episodes);
  List.iteri
    (fun i e ->
      match Obs.Replay.link_episode_duration e with
      | Some d ->
        Alcotest.(check (float 1e-6)) (Printf.sprintf "episode %d lasts 2s" i) 2. d
      | None -> Alcotest.failf "episode %d never healed" i)
    episodes;
  (* the first down edge is at the scheduled start *)
  match episodes with
  | e :: _ ->
    Alcotest.(check (float 1e-6)) "starts on schedule" 40. e.Obs.Replay.lk_down
  | [] -> ()

(* ---------- campaign graceful degradation ---------- *)

let quick_dbf_tasks () =
  let section =
    Campaign.Sections.grid ~name:"fault-test" ~engines:[ E.dbf ] ()
  in
  let sweep =
    Convergence.Experiments.(scale ~runs:2 ~degrees:[ 3 ] quick_sweep)
  in
  (section, sweep, section.Campaign.Sections.tasks sweep)

let test_driver_quarantines_hung_cell () =
  let section, sweep, tasks = quick_dbf_tasks () in
  Alcotest.(check bool) "fixture has >= 2 cells" true (Array.length tasks >= 2);
  let victim = tasks.(0) in
  let key =
    ( victim.Campaign.Sections.t_protocol,
      victim.Campaign.Sections.t_degree,
      victim.Campaign.Sections.t_seed )
  in
  let cells, quarantined, _timing =
    Campaign.Driver.run_tasks ~cell_budget:1.0 ~retries:1 ~hang:key tasks
  in
  Alcotest.(check int)
    "survivors" (Array.length tasks - 1) (Array.length cells);
  let q =
    match quarantined with
    | [ q ] -> q
    | qs -> Alcotest.failf "expected 1 quarantined cell, got %d" (List.length qs)
  in
  Alcotest.(check (pair string (pair int int)))
    "quarantine key"
    (victim.Campaign.Sections.t_protocol,
     (victim.Campaign.Sections.t_degree, victim.Campaign.Sections.t_seed))
    (q.Campaign.Artifact.q_protocol,
     (q.Campaign.Artifact.q_degree, q.Campaign.Artifact.q_seed));
  Alcotest.(check int) "budget + 1 retry = 2 attempts" 2 q.Campaign.Artifact.q_attempts;
  Alcotest.(check bool)
    "error mentions the wall budget" true
    (let e = q.Campaign.Artifact.q_error in
     String.length e >= 11 && String.sub e 0 11 = "wall budget");
  (* the degraded artifact is still a valid, diffable schema-v2 artifact *)
  let a =
    Campaign.Driver.artifact_of ~section ~mode:"quick" ~quarantined sweep cells
  in
  Alcotest.(check (list string))
    "degraded artifact validates" []
    (Campaign.Artifact.validate (Campaign.Artifact.to_json a));
  Alcotest.(check int) "self-diff clean" 0 (List.length (Campaign.Diff.artifacts a a));
  (* against the clean run, the quarantined cell shows up in the diff *)
  let clean_cells, no_q, _ = Campaign.Driver.run_tasks tasks in
  Alcotest.(check int) "clean run has no quarantine" 0 (List.length no_q);
  let b =
    Campaign.Driver.artifact_of ~section ~mode:"quick" sweep clean_cells
  in
  let entries = Campaign.Diff.artifacts b a in
  Alcotest.(check bool)
    "diff flags the quarantine" true
    (List.exists
       (function Campaign.Diff.Quarantine _ -> true | _ -> false)
       entries)

let test_driver_hang_requires_budget () =
  let _, _, tasks = quick_dbf_tasks () in
  Alcotest.check_raises "hang without cell_budget"
    (Invalid_argument "Driver.run_tasks: hang requires a cell_budget to escape")
    (fun () -> ignore (Campaign.Driver.run_tasks ~hang:("DBF", 3, 1) tasks));
  Alcotest.check_raises "negative retries"
    (Invalid_argument "Driver.run_tasks: retries must be >= 0") (fun () ->
      ignore (Campaign.Driver.run_tasks ~retries:(-1) tasks))

(* ---------- artifact schema v2 ---------- *)

let fixture_cell ?(degree = 3) ~seed () =
  {
    Campaign.Cell_result.protocol = "P";
    degree;
    seed;
    sent = 100;
    delivered = 99;
    drops_no_route = 1;
    drops_ttl = 0;
    drops_queue = 0;
    drops_link = 0;
    looped_delivered = 0;
    looped_dropped = 0;
    ctrl_messages = 10;
    ctrl_bytes = 500;
    fwd_convergence = 1.5;
    routing_convergence = 3.0;
    transient_paths = 1;
    extras = [];
    axes = [];
    series = [];
    wall_s = 0.;
    perf = [];
    events = 0;
  }

let fixture_params =
  {
    Campaign.Artifact.mode = "quick";
    rows = 7;
    cols = 7;
    degrees = [ 3 ];
    runs = 2;
    seed = 1;
    rate_pps = 100.;
    warmup = 70.;
    sim_end = 220.;
  }

let fixture_quarantine =
  {
    Campaign.Artifact.q_protocol = "P";
    q_degree = 3;
    q_seed = 2;
    q_error = "wall budget exceeded (1.0 s)";
    q_attempts = 2;
  }

let fixture_v2 () =
  Campaign.Artifact.build ~section:"fig3" ~git_sha:"cafe123"
    ~quarantined:[ fixture_quarantine ] ~include_series:false fixture_params
    [ fixture_cell ~seed:1 () ]

let test_artifact_v2_quarantine_roundtrip () =
  let a = fixture_v2 () in
  match Campaign.Artifact.of_json (Campaign.Artifact.to_json a) with
  | Error e -> Alcotest.fail e
  | Ok b ->
    Alcotest.(check string)
      "canonical bytes survive"
      (Campaign.Artifact.canonical_string a)
      (Campaign.Artifact.canonical_string b);
    (match b.Campaign.Artifact.quarantined with
    | [ q ] ->
      Alcotest.(check string)
        "error text survives" "wall budget exceeded (1.0 s)"
        q.Campaign.Artifact.q_error;
      Alcotest.(check int) "attempts survive" 2 q.Campaign.Artifact.q_attempts
    | qs -> Alcotest.failf "expected 1 quarantine entry, got %d" (List.length qs));
    Alcotest.(check (list string))
      "validates" []
      (Campaign.Artifact.validate (Campaign.Artifact.to_json a))

let obj_map f = function Obs.Json.Obj fields -> Obs.Json.Obj (f fields) | j -> j

let drop_field key = obj_map (List.filter (fun (k, _) -> k <> key))

let set_field key v =
  obj_map (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)))

let test_artifact_v1_read_compat () =
  (* A v1 artifact has no [quarantined] member: reading it must succeed with
     an empty quarantine list, and validation must accept it. *)
  let j = Campaign.Artifact.to_json (fixture_v2 ()) in
  let v1 = set_field "schema_version" (Obs.Json.Int 1) (drop_field "quarantined" j) in
  (match Campaign.Artifact.of_json v1 with
  | Error e -> Alcotest.fail e
  | Ok a ->
    Alcotest.(check int)
      "v1 reads as empty quarantine" 0
      (List.length a.Campaign.Artifact.quarantined));
  Alcotest.(check (list string))
    "v1 validates" [] (Campaign.Artifact.validate v1);
  (* but a v2 artifact that lost its quarantined member is corrupt *)
  let v2_broken = drop_field "quarantined" j in
  Alcotest.(check bool)
    "v2 without the list is rejected" true
    (Result.is_error (Campaign.Artifact.of_json v2_broken));
  Alcotest.(check bool)
    "validate flags it too" true
    (Campaign.Artifact.validate v2_broken <> [])

let test_validate_catches_quarantine_corruption () =
  let violations mutate =
    Campaign.Artifact.validate (mutate (Campaign.Artifact.to_json (fixture_v2 ())))
  in
  (* duplicate quarantine entry *)
  let dup =
    set_field "quarantined"
      (Obs.Json.List
         [
           Campaign.Artifact.quarantine_to_json fixture_quarantine;
           Campaign.Artifact.quarantine_to_json fixture_quarantine;
         ])
  in
  Alcotest.(check bool) "duplicate key flagged" true (violations dup <> []);
  (* a cell that is both completed and quarantined *)
  let collide =
    set_field "quarantined"
      (Obs.Json.List
         [
           Campaign.Artifact.quarantine_to_json
             { fixture_quarantine with Campaign.Artifact.q_seed = 1 };
         ])
  in
  Alcotest.(check bool) "completed+quarantined flagged" true (violations collide <> []);
  (* a structurally broken entry *)
  let broken =
    set_field "quarantined" (Obs.Json.List [ Obs.Json.Int 42 ])
  in
  Alcotest.(check bool) "broken entry flagged" true (violations broken <> [])

let test_committed_bench_artifacts_still_validate () =
  (* The schema bump must keep every committed artifact readable. *)
  List.iter
    (fun path ->
      if Sys.file_exists path then
        match Campaign.Artifact.read ~path with
        | Error e -> Alcotest.failf "%s: %s" path e
        | Ok a ->
          Alcotest.(check (list string))
            (path ^ " validates") []
            (Campaign.Artifact.validate (Campaign.Artifact.to_json a)))
    [ "../BENCH_fig3.json"; "../BENCH_scenarios.json"; "../BENCH_perf.json" ]

(* ---------- replay hardening ---------- *)

let test_replay_opaque_roundtrip () =
  let known =
    Obs.Json.to_string
      (Obs.Sink.record_to_json
         { Obs.Sink.time = 1.5; seq = 3; event = Obs.Event.Link_failed { u = 1; v = 2 } })
  in
  let unknown = {|{"ts":2.5,"seq":4,"ev":"warp_drive","factor":9}|} in
  let garbage = "not json at all" in
  let items, stats =
    Obs.Replay.items_of_lines [ known; ""; unknown; garbage ]
  in
  Alcotest.(check int) "parsed" 1 stats.Obs.Replay.parsed;
  Alcotest.(check int) "opaque" 1 stats.Obs.Replay.opaque;
  Alcotest.(check int) "skipped" 1 stats.Obs.Replay.skipped;
  (match items with
  | [ Obs.Replay.Record r; Obs.Replay.Opaque line ] ->
    Alcotest.(check int) "record seq" 3 r.Obs.Sink.seq;
    Alcotest.(check string) "opaque preserved verbatim" unknown line
  | _ -> Alcotest.failf "expected [Record; Opaque], got %d items" (List.length items));
  (* writing every item back keeps the unknown line byte-identical *)
  let written = List.map Obs.Replay.line_of_item items in
  Alcotest.(check string) "unknown line round-trips" unknown (List.nth written 1);
  (* a second read of the written lines is stable *)
  let _, stats2 = Obs.Replay.items_of_lines written in
  Alcotest.(check int) "reread parsed" 1 stats2.Obs.Replay.parsed;
  Alcotest.(check int) "reread opaque" 1 stats2.Obs.Replay.opaque;
  Alcotest.(check int) "nothing newly skipped" 0 stats2.Obs.Replay.skipped;
  (* of_lines agrees with items_of_lines on records and stats *)
  let records, stats3 = Obs.Replay.of_lines [ known; ""; unknown; garbage ] in
  Alcotest.(check int) "of_lines records" 1 (List.length records);
  Alcotest.(check int) "of_lines opaque stat" 1 stats3.Obs.Replay.opaque

let test_replay_link_report_pairs_episodes () =
  let rec_ time seq event = { Obs.Sink.time; seq; event } in
  let records =
    [
      rec_ 10. 0 (Obs.Event.Link_failed { u = 2; v = 1 });
      rec_ 14. 1 (Obs.Event.Link_healed { u = 1; v = 2 });
      rec_ 18. 2 (Obs.Event.Link_failed { u = 1; v = 2 });
      (* truncated-trace heal on another link, failure not recorded *)
      rec_ 20. 3 (Obs.Event.Link_healed { u = 5; v = 3 });
    ]
  in
  match Obs.Replay.link_report records with
  | [ a; b; c ] ->
    (* canonicalized endpoints, chronological by failure time; the nan-start
       episode sorts first *)
    Alcotest.(check bool) "truncated start is nan" true (Float.is_nan a.Obs.Replay.lk_down);
    Alcotest.(check (pair int int)) "truncated link" (3, 5) (a.Obs.Replay.lk_u, a.Obs.Replay.lk_v);
    Alcotest.(check (pair int int)) "canonical endpoints" (1, 2) (b.Obs.Replay.lk_u, b.Obs.Replay.lk_v);
    Alcotest.(check (option (float 1e-9))) "first episode 4s" (Some 4.)
      (Obs.Replay.link_episode_duration b);
    Alcotest.(check (option (float 1e-9))) "still down" None
      (Obs.Replay.link_episode_duration c);
    Alcotest.(check (float 1e-9)) "second down at 18" 18. c.Obs.Replay.lk_down
  | es -> Alcotest.failf "expected 3 episodes, got %d" (List.length es)

let () =
  Alcotest.run "fault"
    [
      ( "rtx",
        [
          Alcotest.test_case "in-order delivery" `Quick test_rtx_in_order_delivery;
          Alcotest.test_case "out-of-order buffering" `Quick
            test_rtx_out_of_order_buffering;
          Alcotest.test_case "retransmit recovers loss" `Quick
            test_rtx_retransmit_recovers_loss;
          Alcotest.test_case "backoff and retry-cap reset" `Quick
            test_rtx_backoff_and_retry_cap_reset;
          Alcotest.test_case "Karn's rule" `Quick
            test_rtx_karn_ignores_retransmitted_samples;
          Alcotest.test_case "reorder buffer never feeds the estimator" `Quick
            test_rtx_reorder_buffer_rtt_immunity;
          Alcotest.test_case "backoff collapses on forward progress" `Quick
            test_rtx_backoff_collapses_on_progress;
          Alcotest.test_case "epoch staleness" `Quick test_rtx_epoch_staleness;
          Alcotest.test_case "link-down teardown" `Quick
            test_rtx_link_down_teardown;
          Alcotest.test_case "config validation" `Quick test_rtx_config_validation;
        ] );
      ( "validate",
        [ Alcotest.test_case "NaN rejected" `Quick test_validation_rejects_nan ] );
      ( "e2e",
        [
          Alcotest.test_case "rtx wire-transparent at zero loss" `Quick
            test_rtx_wire_transparent_at_zero_loss;
          Alcotest.test_case "BGP converges through 10% loss with rtx" `Quick
            test_bgp_converges_through_loss_with_rtx;
          Alcotest.test_case "BGP blackholes through 10% loss without rtx" `Quick
            test_bgp_stalls_through_loss_without_rtx;
          Alcotest.test_case "flap schedule audited offline" `Quick
            test_flap_schedule_audited_by_link_report;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "hung cell quarantined" `Slow
            test_driver_quarantines_hung_cell;
          Alcotest.test_case "hang requires a budget" `Quick
            test_driver_hang_requires_budget;
        ] );
      ( "artifact-v2",
        [
          Alcotest.test_case "quarantine round-trip" `Quick
            test_artifact_v2_quarantine_roundtrip;
          Alcotest.test_case "v1 read compatibility" `Quick
            test_artifact_v1_read_compat;
          Alcotest.test_case "quarantine corruption flagged" `Quick
            test_validate_catches_quarantine_corruption;
          Alcotest.test_case "committed artifacts validate" `Quick
            test_committed_bench_artifacts_still_validate;
        ] );
      ( "replay",
        [
          Alcotest.test_case "opaque lines round-trip" `Quick
            test_replay_opaque_roundtrip;
          Alcotest.test_case "link outage report" `Quick
            test_replay_link_report_pairs_episodes;
        ] );
    ]
