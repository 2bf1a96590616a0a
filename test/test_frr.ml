(* The fast-reroute backup table: LFA selection, local-detection exclusion,
   the retention rule for withdrawn primaries, and the dirtying entry points
   the runner drives on topology events. *)

(* The 4-cycle 0-1-3-2-0: every (node, dst) pair at distance 2 has exactly
   one loop-free alternate (the other side of the square), and adjacent
   pairs have none (the detour is as long as going back). *)
let square_neighbors = function
  | 0 -> [ 1; 2 ]
  | 1 -> [ 0; 3 ]
  | 2 -> [ 0; 3 ]
  | 3 -> [ 1; 2 ]
  | _ -> []

let square_dist = [| [| 0; 1; 1; 2 |]; [| 1; 0; 2; 1 |]; [| 1; 2; 0; 1 |]; [| 2; 1; 1; 0 |] |]

let square_metric ~node ~dst = Some square_dist.(node).(dst)

(* Shortest-path next hop, lowest id first: 0 reaches 3 via 1, 3 reaches 0
   via 1, and so on. *)
let square_next_hop ~node ~dst =
  if node = dst then None
  else
    List.find_opt
      (fun h -> square_dist.(h).(dst) = square_dist.(node).(dst) - 1)
      (square_neighbors node)

let make_square () =
  Frr.create (Netsim.Topology.create ~nodes:4 ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ])

let sweep_all ?(on_install = fun ~node:_ ~dst:_ ~backup:_ -> ()) f =
  for dst = 0 to Frr.node_count f - 1 do
    Frr.mark_dirty f ~dst
  done;
  ignore (Frr.arm_sweep f);
  Frr.sweep f ~metric:square_metric ~next_hop:square_next_hop ~on_install

let test_lfa_selection () =
  let f = make_square () in
  sweep_all f;
  (* 0 -> 3 goes via 1; neighbor 2 satisfies dist(2,3) < 1 + dist(0,3). *)
  Alcotest.(check (option int)) "0 -> 3 backs up via 2" (Some 2)
    (Frr.backup f ~node:0 ~dst:3);
  Alcotest.(check int) "backup_id agrees" 2 (Frr.backup_id f ~node:0 ~dst:3);
  (* 0 -> 1 is adjacent: the only alternate 2 has dist(2,1) = 2 = 1 +
     dist(0,1) — not loop-free, so no backup. *)
  Alcotest.(check (option int)) "0 -> 1 has no LFA" None
    (Frr.backup f ~node:0 ~dst:1);
  (* the table is symmetric on the square *)
  Alcotest.(check (option int)) "3 -> 0 backs up via 2" (Some 2)
    (Frr.backup f ~node:3 ~dst:0)

let test_preference_order () =
  (* Fabricated tables on a 5-node star around 0: for destination 4, both
     neighbors 2 (equal-metric, loop-free) and 3 (downstream) qualify;
     the downstream alternate must win even with the larger node id. *)
  let metric ~node ~dst =
    if dst <> 4 then None
    else
      match node with 0 -> Some 2 | 1 -> Some 1 | 2 -> Some 2 | 3 -> Some 1 | _ -> None
  in
  let next_hop ~node ~dst =
    if dst = 4 && node = 0 then Some 1 else if dst = 4 then Some 4 else None
  in
  let f = Frr.create (Netsim.Topology.create ~nodes:5 ~edges:[ (0, 1); (0, 2); (0, 3) ]) in
  Alcotest.(check int) "downstream beats equal-metric" 3
    (Frr.compute_backup f ~metric ~next_hop ~node:0 ~dst:4)

let test_down_slot_excluded () =
  let f = make_square () in
  sweep_all f;
  Alcotest.(check bool) "newly marked" true (Frr.mark_down f ~node:0 ~neighbor:2);
  Alcotest.(check bool) "already marked" false (Frr.mark_down f ~node:0 ~neighbor:2);
  Alcotest.(check bool) "node is active" true (Frr.active f 0);
  Alcotest.(check bool) "directed view" false (Frr.is_down f ~node:2 ~neighbor:0);
  (* Recomputing 0's column must not hand back the detected-down neighbor. *)
  sweep_all f;
  Alcotest.(check (option int)) "down slot excluded" None
    (Frr.backup f ~node:0 ~dst:3);
  Frr.mark_up f ~node:0 ~neighbor:2;
  sweep_all f;
  Alcotest.(check (option int)) "restored after recovery" (Some 2)
    (Frr.backup f ~node:0 ~dst:3)

let test_retention_on_withdrawn_primary () =
  let f = make_square () in
  sweep_all f;
  (* 0's primary toward 3 is withdrawn mid-churn: the sweep must keep the
     last converged backup rather than erase it during the loss window. *)
  let churn_next_hop ~node ~dst =
    if node = 0 && dst = 3 then None else square_next_hop ~node ~dst
  in
  Frr.mark_dirty f ~dst:3;
  ignore (Frr.arm_sweep f);
  Frr.sweep f ~metric:square_metric ~next_hop:churn_next_hop
    ~on_install:(fun ~node:_ ~dst:_ ~backup:_ -> ());
  Alcotest.(check (option int)) "backup retained through withdrawal" (Some 2)
    (Frr.backup f ~node:0 ~dst:3)

let test_dirty_backups_via () =
  let f = make_square () in
  sweep_all f;
  ignore (Frr.mark_down f ~node:0 ~neighbor:2);
  (* Without dirtying, a sweep over an empty dirty set leaves the stale
     alternate in place... *)
  ignore (Frr.arm_sweep f);
  Frr.sweep f ~metric:square_metric ~next_hop:square_next_hop
    ~on_install:(fun ~node:_ ~dst:_ ~backup:_ -> ());
  Alcotest.(check (option int)) "stale without dirtying" (Some 2)
    (Frr.backup f ~node:0 ~dst:3);
  (* ...and dirty_backups_via is exactly the repair: it marks every
     destination whose backup crossed the dead link. *)
  Frr.dirty_backups_via f ~node:0 ~neighbor:2;
  ignore (Frr.arm_sweep f);
  Frr.sweep f ~metric:square_metric ~next_hop:square_next_hop
    ~on_install:(fun ~node:_ ~dst:_ ~backup:_ -> ());
  Alcotest.(check (option int)) "recomputed after dirtying" None
    (Frr.backup f ~node:0 ~dst:3)

let test_dirty_missing_backups () =
  let f = make_square () in
  ignore (Frr.mark_down f ~node:0 ~neighbor:2);
  sweep_all f;
  Alcotest.(check (option int)) "no backup while down" None
    (Frr.backup f ~node:0 ~dst:3);
  Frr.mark_up f ~node:0 ~neighbor:2;
  Frr.dirty_missing_backups f ~node:0;
  let installs = ref [] in
  ignore (Frr.arm_sweep f);
  Frr.sweep f ~metric:square_metric ~next_hop:square_next_hop
    ~on_install:(fun ~node ~dst ~backup -> installs := (node, dst, backup) :: !installs);
  Alcotest.(check (option int)) "alternate appears after heal" (Some 2)
    (Frr.backup f ~node:0 ~dst:3);
  Alcotest.(check bool) "install traced" true (List.mem (0, 3, 2) !installs)

let test_sweep_debounce_and_idempotence () =
  let f = make_square () in
  Frr.mark_dirty f ~dst:3;
  Alcotest.(check bool) "first arm schedules" true (Frr.arm_sweep f);
  Frr.mark_dirty f ~dst:0;
  Alcotest.(check bool) "second arm debounced" false (Frr.arm_sweep f);
  Frr.sweep f ~metric:square_metric ~next_hop:square_next_hop
    ~on_install:(fun ~node:_ ~dst:_ ~backup:_ -> ());
  Alcotest.(check bool) "re-armable after sweep" true (Frr.arm_sweep f);
  (* A sweep against unchanged tables installs nothing new. *)
  let installs = ref 0 in
  sweep_all f;
  sweep_all f ~on_install:(fun ~node:_ ~dst:_ ~backup:_ -> incr installs);
  Alcotest.(check int) "idempotent sweep is silent" 0 !installs

let () =
  Alcotest.run "frr"
    [
      ( "backup table",
        [
          Alcotest.test_case "LFA selection" `Quick test_lfa_selection;
          Alcotest.test_case "preference order" `Quick test_preference_order;
          Alcotest.test_case "down slot excluded" `Quick test_down_slot_excluded;
          Alcotest.test_case "retention on withdrawn primary" `Quick
            test_retention_on_withdrawn_primary;
          Alcotest.test_case "dirty backups via dead link" `Quick
            test_dirty_backups_via;
          Alcotest.test_case "dirty missing backups on heal" `Quick
            test_dirty_missing_backups;
          Alcotest.test_case "debounce and idempotence" `Quick
            test_sweep_debounce_and_idempotence;
        ] );
    ]
