(* The flow of a one-flow outcome, such as [Engine_registry.run] returns for
   the paper's scenario. *)
let get (m : Convergence.Metrics.multi) =
  match m.Convergence.Metrics.m_flows with
  | [ f ] -> f
  | fs -> Alcotest.failf "expected one flow, got %d" (List.length fs)
