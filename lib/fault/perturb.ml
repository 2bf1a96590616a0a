type scope = All | Control_only | Data_only

type t = {
  drop : float;
  corrupt : float;
  duplicate : float;
  jitter : float;
  scope : scope;
}

let none = { drop = 0.; corrupt = 0.; duplicate = 0.; jitter = 0.; scope = All }

let is_null t =
  t.drop = 0. && t.corrupt = 0. && t.duplicate = 0. && t.jitter = 0.

let validate t =
  (* Written so that NaN fails: every comparison with NaN is false. *)
  let prob name p =
    if not (0. <= p && p <= 1.) then
      Error (Printf.sprintf "%s must be in [0,1]" name)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let* () = prob "drop" t.drop in
  let* () = prob "corrupt" t.corrupt in
  let* () = prob "duplicate" t.duplicate in
  if t.drop +. t.corrupt > 1. then Error "drop + corrupt must be <= 1"
  else if not (t.jitter >= 0.) then Error "jitter must be >= 0"
  else Ok ()

type outcome = Drop | Corrupt | Deliver of { copies : int; delay : float }

(* One unit crossing the link: a single uniform draw partitions [0,1) into
   drop / corrupt / pass, then duplication and jitter each draw only when
   their knob is nonzero — so an all-zero perturbation consumes no randomness
   beyond the first draw, and draw counts per delivery are predictable. *)
let decide rng t =
  let u = Dessim.Rng.float rng 1.0 in
  if u < t.drop then Drop
  else if u < t.drop +. t.corrupt then Corrupt
  else
    let copies =
      if t.duplicate > 0. && Dessim.Rng.float rng 1.0 < t.duplicate then 2
      else 1
    in
    let delay = if t.jitter > 0. then Dessim.Rng.float rng t.jitter else 0. in
    Deliver { copies; delay }
