(* The ablation the paper speculates about in Section 5.2: "the results could
   have been different had the MRAI timer been implemented on a per
   (neighbor, destination) basis".

   We run standard BGP (per-neighbor MRAI, as in vendor implementations)
   against the same protocol with per-(neighbor, destination) timers. With
   per-destination timers, an early update about one destination no longer
   delays updates about the destinations that changed later in the same
   convergence episode, so routing converges faster and inconsistency windows
   shrink.

     dune exec examples/mrai_granularity.exe *)

let () =
  let sweep =
    Convergence.Experiments.
      {
        degrees = [ 3; 4; 5; 6 ];
        runs = 5;
        base = { Convergence.Config.default with send_rate_pps = 100. };
      }
  in
  match Campaign.Sections.find "ablation-mrai" with
  | None -> failwith "no ablation-mrai campaign section"
  | Some section ->
    let artifact =
      Campaign.Driver.run ~jobs:(Campaign.Pool.default_jobs ())
        ~progress:(fun line -> Fmt.epr "  .. %s@." line)
        ~mode:"custom" sweep section
    in
    Fmt.pr "=== %s ===@." section.Campaign.Sections.title;
    section.Campaign.Sections.render Fmt.stdout artifact
