type link_choice = Edge of int * int | Any_edge

type flap = {
  flap_link : link_choice;
  flap_start : float;
  flap_cycles : int;
  down_min : float;
  down_max : float;
  up_min : float;
  up_max : float;
}

type crash = { crash_node : int; crash_at : float; reboot_after : float option }

let flap ?(link = Any_edge) ~start ~cycles ~down ~up () =
  {
    flap_link = link;
    flap_start = start;
    flap_cycles = cycles;
    down_min = down;
    down_max = down;
    up_min = up;
    up_max = up;
  }

(* The checks are written so that NaN fails: every comparison with NaN is
   false. *)
let validate_flap f =
  if not (f.flap_start >= 0.) then Error "flap_start must be >= 0"
  else if f.flap_cycles < 1 then Error "flap_cycles must be >= 1"
  else if not (0. <= f.down_min && f.down_min <= f.down_max) then
    Error "down durations must satisfy 0 <= down_min <= down_max"
  else if not (0. <= f.up_min && f.up_min <= f.up_max) then
    Error "up durations must satisfy 0 <= up_min <= up_max"
  else Ok ()

let validate_crash c =
  if not (c.crash_at >= 0.) then Error "crash_at must be >= 0"
  else if (match c.reboot_after with Some d -> not (d > 0.) | None -> false)
  then Error "reboot_after must be > 0"
  else Ok ()

type transition = { at : float; up : bool }

(* Durations are drawn in schedule order from the supplied RNG, so a flap's
   timeline is a pure function of (rng state, flap spec) — the caller hands
   in a stream derived from the run seed and gets a reproducible schedule. *)
let flap_transitions rng f =
  let draw lo hi = if hi > lo then Dessim.Rng.uniform rng lo hi else lo in
  let rec go t n acc =
    if n = 0 then List.rev acc
    else
      let down_for = draw f.down_min f.down_max in
      let up_at = t +. down_for in
      let up_for = draw f.up_min f.up_max in
      go
        (up_at +. up_for)
        (n - 1)
        ({ at = up_at; up = true } :: { at = t; up = false } :: acc)
  in
  go f.flap_start f.flap_cycles []
