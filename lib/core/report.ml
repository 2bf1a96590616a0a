let rule ppf width = Fmt.pf ppf "%s@," (String.make width '-')

let scalar_table ~title ~unit_label ppf data =
  let protocols = List.map fst data in
  let degrees =
    match data with [] -> [] | (_, cells) :: _ -> List.map fst cells
  in
  (* Column width fits the longest protocol label plus padding. *)
  let col =
    List.fold_left (fun acc p -> max acc (String.length p + 2)) 10 protocols
  in
  let width = 8 + (col * List.length protocols) in
  Fmt.pf ppf "@[<v>%s (%s)@," title unit_label;
  rule ppf width;
  Fmt.pf ppf "%-8s" "degree";
  List.iter (fun p -> Fmt.pf ppf "%*s" col p) protocols;
  Fmt.pf ppf "@,";
  rule ppf width;
  let row degree =
    Fmt.pf ppf "%-8d" degree;
    let cell (_, cells) =
      match List.assoc_opt degree cells with
      | Some v -> Fmt.pf ppf "%*.2f" col v
      | None -> Fmt.pf ppf "%*s" col "-"
    in
    List.iter cell data;
    Fmt.pf ppf "@,"
  in
  List.iter row degrees;
  rule ppf width;
  Fmt.pf ppf "@]"
