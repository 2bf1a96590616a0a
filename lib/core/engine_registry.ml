type t =
  | Engine :
      (module Protocols.Proto_intf.PROTOCOL with type config = 'c) * 'c * string
      -> t

let name (Engine (_, _, label)) = label

let rip = Engine ((module Protocols.Rip), Protocols.Rip.default_config, "RIP")

let dbf = Engine ((module Protocols.Dbf), Protocols.Dbf.default_config, "DBF")

let bgp = Engine ((module Protocols.Bgp), Protocols.Bgp.default_config, "BGP")

let bgp3 = Engine ((module Protocols.Bgp), Protocols.Bgp.fast_config, "BGP-3")

let bgp_per_dest =
  Engine
    ( (module Protocols.Bgp),
      { Protocols.Bgp.default_config with mrai_scope = Protocols.Bgp.Per_destination },
      "BGP-pd" )

let bgp3_rfd =
  Engine
    ( (module Protocols.Bgp),
      { Protocols.Bgp.fast_config with rfd = Some Protocols.Bgp.default_rfd },
      "BGP-3+RFD" )

let ls = Engine ((module Protocols.Ls), Protocols.Ls.default_config, "LS")

let paper_four = [ rip; dbf; bgp; bgp3 ]

let all = [ rip; dbf; bgp; bgp3; bgp_per_dest; bgp3_rfd; ls ]

let find label =
  let target = String.lowercase_ascii label in
  List.find_opt (fun e -> String.lowercase_ascii (name e) = target) all

let run_multi ?topology ?faults ?frr ?trace ?monitors ?metrics ?on_quiesce
    ~flows ~failures cfg (Engine ((module P), pcfg, label)) =
  let module R = Runner.Make (P) in
  R.run_multi ~label ?topology ?faults ?frr ?trace ?monitors ?metrics
    ?on_quiesce ~flows ~failures cfg pcfg

let run ?topology ?faults ?frr ?src ?dst ?trace ?monitors ?metrics ?on_quiesce
    ?fail_link ?restore_after (cfg : Config.t) engine =
  let flow = { Runner.default_flow with flow_src = src; flow_dst = dst } in
  let failure =
    {
      Runner.fail_at = cfg.Config.failure_time;
      target =
        (match fail_link with
        | Some (u, v) -> Runner.Link (u, v)
        | None -> Runner.Flow_path 0);
      heal_after = restore_after;
    }
  in
  Metrics.run_of_multi
    (run_multi ?topology ?faults ?frr ?trace ?monitors ?metrics ?on_quiesce
       ~flows:[ flow ] ~failures:[ failure ] cfg engine)
