(* Rotate a cycle so the smallest node comes first, preserving forwarding
   order; makes cycles comparable regardless of where they were entered. *)
let normalize cycle =
  match cycle with
  | [] -> []
  | _ ->
    let smallest = List.fold_left min (List.hd cycle) cycle in
    let rec rotate acc = function
      | [] -> List.rev acc (* unreachable: smallest is a member *)
      | x :: rest when x = smallest -> (x :: rest) @ List.rev acc
      | x :: rest -> rotate (x :: acc) rest
    in
    rotate [] cycle

let cycle_of_visits visits =
  (* [visits] in travel order; find the first node that repeats and cut the
     cycle between its two occurrences. *)
  let rec hunt seen = function
    | [] -> None
    | x :: rest ->
      if List.mem x seen then begin
        (* seen is reversed prefix; the cycle runs from x's first occurrence
           up to (excluding) this repeat. *)
        let rec take acc = function
          | [] -> acc (* unreachable *)
          | y :: more -> if y = x then y :: acc else take (y :: acc) more
        in
        Some (normalize (take [] seen))
      end
      else hunt (x :: seen) rest
  in
  hunt [] visits

let cycle_of_path = function
  | Observer.Looping p -> cycle_of_visits p
  | Observer.Complete _ | Observer.Broken _ -> None
