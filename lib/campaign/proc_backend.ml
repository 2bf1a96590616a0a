(* Parent/child halves of the multi-process backend. Both halves treat the
   pipe protocol with the cache's suspicion: every worker->parent record is
   CRC-framed (Frame.frame), and any malformed or out-of-sequence record is
   handled as a worker fault — kill, respawn, re-queue — never as campaign
   data. *)

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      go (off + restart_on_eintr (fun () -> Unix.write fd b off (len - off)))
  in
  go 0

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let send fd j = write_all fd (Frame.frame (Obs.Json.to_string j))

(* ---------- child ---------- *)

let worker ~run_cell () =
  (* Ctrl-C belongs to the supervisor: it decides whether to let in-flight
     cells finish. Workers are shut down by stdin EOF or SIGKILL. *)
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  (* The heartbeat is a SIGALRM handler writing one byte to stderr. OCaml
     runs signal handlers at safe points of the main program, so each byte
     proves the cell's loop is advancing — a worker wedged in a C stub or
     a pathological allocation stops beating even though the process
     lives. *)
  let hb = Bytes.of_string "h" in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         try ignore (Unix.write Unix.stderr hb 0 1) with Unix.Unix_error _ -> ()));
  let heartbeat on =
    let v = if on then 0.5 else 0. in
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })
  in
  let buf = Buffer.create 64 in
  let chunk = Bytes.create 256 in
  let rec read_line () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
    | None -> (
      match restart_on_eintr (fun () -> Unix.read Unix.stdin chunk 0 256) with
      | 0 -> None
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        read_line ())
  in
  send Unix.stdout (Obj [ ("type", String "ready") ]);
  let rec serve () : 'a =
    match read_line () with
    | None -> exit 0
    | Some line -> (
      match int_of_string_opt (String.trim line) with
      | None -> exit 2
      | Some i ->
        send Unix.stdout (Obj [ ("type", String "start"); ("i", Int i) ]);
        heartbeat true;
        let result =
          try run_cell i with exn -> Error (Printexc.to_string exn)
        in
        heartbeat false;
        (match result with
        | Ok (wall, cell) ->
          send Unix.stdout
            (Obj
               (("type", String "cell")
               :: ("i", Int i)
               :: Cell_result.envelope_fields
                    { cell with Cell_result.wall_s = wall }))
        | Error e ->
          send Unix.stdout
            (Obj [ ("type", String "failed"); ("i", Int i); ("error", String e) ]));
        serve ())
  in
  serve ()

(* ---------- parent ---------- *)

type outcome =
  | Cell of { index : int; cell : Cell_result.t }
  | Quarantined of { index : int; error : string; attempts : int }

type stats = { p_spawns : int; p_restarts : int; p_slot_cells : int list }

type assignment = {
  a_index : int;
  a_attempt : int;  (** 1-based *)
  mutable a_started : bool;  (** worker acknowledged with "start" *)
  mutable a_start_time : float;
  mutable a_deadline : float;  (** absolute; re-armed on "start" *)
  mutable a_last_hb : float;
}

type proc = {
  pid : int;
  stdin_w : Unix.file_descr;
  stdout_r : Unix.file_descr;
  stderr_r : Unix.file_descr;
  obuf : Buffer.t;  (** partial stdout line *)
  mutable ready : bool;
  mutable assignment : assignment option;
  mutable kill_reason : string option;
      (** set before SIGKILL so the death handler reports why, not just
          "killed by signal 9" *)
}

type slot = {
  id : int;
  mutable proc : proc option;
  mutable early_deaths : int;
      (** consecutive deaths before "ready" — an exec that cannot start *)
  mutable retired : bool;
  mutable cells : int;
}

(* OCaml signal numbers are its own negative encoding; name the ones a
   worker plausibly dies of. *)
let signal_name sg =
  if sg = Sys.sigkill then "SIGKILL"
  else if sg = Sys.sigsegv then "SIGSEGV"
  else if sg = Sys.sigterm then "SIGTERM"
  else if sg = Sys.sigabrt then "SIGABRT"
  else if sg = Sys.sigbus then "SIGBUS"
  else if sg = Sys.sigill then "SIGILL"
  else if sg = Sys.sigint then "SIGINT"
  else Printf.sprintf "signal %d" sg

let run ~jobs ~argv ~indices ~retries ?(min_deadline = 10.)
    ?(hb_timeout = 10.) ~progress ~on_outcome () =
  if jobs < 1 then invalid_arg "Proc_backend.run: jobs must be >= 1";
  (* A worker dying with unread pipe data would SIGPIPE the parent on the
     next dispatch; we want the EPIPE error instead, handled as a death. *)
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev_sigpipe)
  @@ fun () ->
  let pending = Queue.create () in
  Array.iter (fun i -> Queue.add i pending) indices;
  let failures = Hashtbl.create 16 in
  let fail_count i = Option.value (Hashtbl.find_opt failures i) ~default:0 in
  let spawns = ref 0 and restarts = ref 0 in
  (* Jacobson estimator over clean first-attempt cell times; retried
     attempts never feed it (Karn's rule), so a slow machine raises the
     deadline but a retry storm cannot. *)
  let srtt = ref None and rttvar = ref 0. in
  let sample_rtt s =
    match !srtt with
    | None ->
      srtt := Some s;
      rttvar := s /. 2.
    | Some old ->
      rttvar := (0.75 *. !rttvar) +. (0.25 *. Float.abs (old -. s));
      srtt := Some ((0.875 *. old) +. (0.125 *. s))
  in
  let deadline_for attempt =
    let base =
      match !srtt with
      | Some s -> Float.max min_deadline (s +. (4. *. !rttvar))
      | None -> min_deadline
    in
    base *. (2. ** float_of_int (attempt - 1))
  in
  let slots =
    Array.init jobs (fun id ->
        { id; proc = None; early_deaths = 0; retired = false; cells = 0 })
  in
  let spawn slot =
    match
      let in_r, in_w = Unix.pipe ~cloexec:true () in
      let out_r, out_w = Unix.pipe ~cloexec:true () in
      let err_r, err_w = Unix.pipe ~cloexec:true () in
      let pid =
        try Unix.create_process argv.(0) argv in_r out_w err_w
        with exn ->
          List.iter close_noerr [ in_r; in_w; out_r; out_w; err_r; err_w ];
          raise exn
      in
      Unix.close in_r;
      Unix.close out_w;
      Unix.close err_w;
      {
        pid;
        stdin_w = in_w;
        stdout_r = out_r;
        stderr_r = err_r;
        obuf = Buffer.create 256;
        ready = false;
        assignment = None;
        kill_reason = None;
      }
    with
    | p ->
      incr spawns;
      slot.proc <- Some p
    | exception _ ->
      (* fork failure: charge it like a pre-ready death *)
      slot.early_deaths <- slot.early_deaths + 1;
      if slot.early_deaths >= 3 then begin
        slot.retired <- true;
        progress
          (Printf.sprintf "proc: slot %d retired (%d consecutive spawn failures)"
             slot.id slot.early_deaths)
      end
  in
  (* Charge one failed attempt to [index]; re-queue or quarantine. *)
  let fail_index index error =
    let f = fail_count index + 1 in
    Hashtbl.replace failures index f;
    if f > retries then
      on_outcome (Quarantined { index; error; attempts = f })
    else begin
      progress
        (Printf.sprintf "proc: cell %d attempt %d failed (%s), re-queued" index
           f error);
      Queue.add index pending
    end
  in
  let kill_worker p reason =
    if p.kill_reason = None then begin
      p.kill_reason <- Some reason;
      try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ()
    end
  in
  let dispatch p =
    match Queue.take_opt pending with
    | None -> ()
    | Some index -> (
      let attempt = fail_count index + 1 in
      let now = Unix.gettimeofday () in
      let a =
        {
          a_index = index;
          a_attempt = attempt;
          a_started = false;
          a_start_time = now;
          a_deadline = now +. deadline_for attempt;
          a_last_hb = now;
        }
      in
      p.assignment <- Some a;
      try write_all p.stdin_w (string_of_int index ^ "\n")
      with Unix.Unix_error (Unix.EPIPE, _, _) ->
        (* Worker already dead; the cell never reached it, so give it back
           uncharged — the stdout EOF path reaps and respawns. *)
        p.assignment <- None;
        Queue.add index pending)
  in
  let handle_death slot p =
    (* Covers crash, OS kill, supervised kill, and voluntary exit: always
       reached via stdout EOF, so every line the worker managed to write
       has been processed first. *)
    (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let _, status = restart_on_eintr (fun () -> Unix.waitpid [] p.pid) in
    close_noerr p.stdin_w;
    close_noerr p.stdout_r;
    close_noerr p.stderr_r;
    slot.proc <- None;
    (match p.assignment with
    | Some a ->
      let error =
        match p.kill_reason with
        | Some r -> r
        | None -> (
          match status with
          | Unix.WSIGNALED sg ->
            Printf.sprintf "worker killed by %s mid-cell" (signal_name sg)
          | Unix.WEXITED c ->
            Printf.sprintf "worker exited with code %d mid-cell" c
          | Unix.WSTOPPED _ -> "worker stopped mid-cell")
      in
      p.assignment <- None;
      fail_index a.a_index error
    | None -> ());
    if p.ready then begin
      incr restarts;
      progress
        (Printf.sprintf "proc: worker %d (slot %d) died (%s); respawning" p.pid
           slot.id
           (Option.value p.kill_reason
              ~default:
                (match status with
                | Unix.WSIGNALED sg -> signal_name sg
                | Unix.WEXITED c -> Printf.sprintf "exit %d" c
                | Unix.WSTOPPED _ -> "stopped")))
    end
    else begin
      slot.early_deaths <- slot.early_deaths + 1;
      if slot.early_deaths >= 3 then begin
        slot.retired <- true;
        progress
          (Printf.sprintf
             "proc: slot %d retired (%d consecutive deaths before ready)"
             slot.id slot.early_deaths)
      end
    end
  in
  let json_int name j = Option.bind (Obs.Json.member name j) Obs.Json.to_int in
  let json_str name j =
    Option.bind (Obs.Json.member name j) Obs.Json.to_string_val
  in
  let handle_msg slot p j =
    let proto_violation what =
      kill_worker p (Printf.sprintf "protocol violation (%s)" what)
    in
    match json_str "type" j with
    | Some "ready" ->
      p.ready <- true;
      slot.early_deaths <- 0
    | Some "start" -> (
      match (p.assignment, json_int "i" j) with
      | Some a, Some i when i = a.a_index ->
        let now = Unix.gettimeofday () in
        a.a_started <- true;
        a.a_start_time <- now;
        a.a_last_hb <- now;
        (* Re-arm from the acknowledgement: queueing delay between dispatch
           and pickup should not eat into the cell's own budget. *)
        a.a_deadline <- now +. deadline_for a.a_attempt
      | _ -> proto_violation "unexpected start")
    | Some "cell" -> (
      match (p.assignment, json_int "i" j) with
      | Some a, Some i when i = a.a_index -> (
        match Cell_result.of_envelope j with
        | Error e ->
          p.assignment <- None;
          fail_index i (Printf.sprintf "worker returned a bad cell row: %s" e)
        | Ok c ->
          p.assignment <- None;
          slot.cells <- slot.cells + 1;
          if a.a_attempt = 1 && p.kill_reason = None then
            sample_rtt (Unix.gettimeofday () -. a.a_start_time);
          on_outcome (Cell { index = i; cell = c }))
      | _ -> proto_violation "unexpected cell")
    | Some "failed" -> (
      match (p.assignment, json_int "i" j) with
      | Some a, Some i when i = a.a_index ->
        p.assignment <- None;
        fail_index i
          (Option.value (json_str "error" j) ~default:"worker reported failure")
      | _ -> proto_violation "unexpected failed")
    | _ -> proto_violation "unknown record type"
  in
  let chunk = Bytes.create 4096 in
  let drain_stdout slot p =
    match restart_on_eintr (fun () -> Unix.read p.stdout_r chunk 0 4096) with
    | 0 -> handle_death slot p
    | n ->
      Buffer.add_subbytes p.obuf chunk 0 n;
      let rec lines () =
        (* [slot.proc] may have been cleared by a kill inside handle_msg;
           the buffered lines still belong to this proc, keep going. *)
        let s = Buffer.contents p.obuf in
        match String.index_opt s '\n' with
        | None -> ()
        | Some i ->
          Buffer.clear p.obuf;
          Buffer.add_string p.obuf (String.sub s (i + 1) (String.length s - i - 1));
          let line = String.sub s 0 i in
          (match Frame.unframe line with
          | Ok j -> handle_msg slot p j
          | Error e -> kill_worker p (Printf.sprintf "corrupt record (%s)" e));
          lines ()
      in
      lines ()
  in
  let drain_stderr p =
    match restart_on_eintr (fun () -> Unix.read p.stderr_r chunk 0 4096) with
    | 0 -> () (* death is detected on stdout EOF *)
    | _ -> (
      match p.assignment with
      | Some a -> a.a_last_hb <- Unix.gettimeofday ()
      | None -> ())
  in
  let check_timers now p =
    match p.assignment with
    | Some a when p.kill_reason = None ->
      if now > a.a_deadline then
        kill_worker p
          (Printf.sprintf "cell deadline exceeded (%.1f s, attempt %d)"
             (a.a_deadline -. a.a_start_time)
             a.a_attempt)
      else if a.a_started && now -. a.a_last_hb > hb_timeout then
        kill_worker p
          (Printf.sprintf "heartbeat silent for %.1f s mid-cell"
             (now -. a.a_last_hb))
    | _ -> ()
  in
  let work_remains () =
    (not (Queue.is_empty pending))
    || Array.exists
         (fun s ->
           match s.proc with
           | Some p -> Option.is_some p.assignment
           | None -> false)
         slots
  in
  let all_retired () = Array.for_all (fun s -> s.retired) slots in
  let stopping = ref false in
  while work_remains () && not !stopping && not (all_retired ()) do
    if Dessim.Scheduler.stop_requested () then stopping := true
    else begin
      Array.iter
        (fun s -> if (not s.retired) && s.proc = None then spawn s)
        slots;
      Array.iter
        (fun s ->
          match s.proc with
          | Some p
            when p.ready && Option.is_none p.assignment
                 && p.kill_reason = None ->
            dispatch p
          | _ -> ())
        slots;
      let fds =
        Array.fold_left
          (fun acc s ->
            match s.proc with
            | Some p -> p.stdout_r :: p.stderr_r :: acc
            | None -> acc)
          [] slots
      in
      if fds = [] then
        (* every live slot failed to spawn this round; back off briefly *)
        ignore (restart_on_eintr (fun () -> Unix.select [] [] [] 0.05))
      else begin
        let readable, _, _ =
          restart_on_eintr (fun () -> Unix.select fds [] [] 0.25)
        in
        Array.iter
          (fun s ->
            match s.proc with
            | Some p ->
              if List.memq p.stderr_r readable then drain_stderr p;
              (match s.proc with
              | Some p' when p' == p && List.memq p.stdout_r readable ->
                drain_stdout s p
              | _ -> ())
            | None -> ())
          slots;
        let now = Unix.gettimeofday () in
        Array.iter
          (fun s -> match s.proc with Some p -> check_timers now p | None -> ())
          slots
      end
    end
  done;
  (* Leftovers — indices with no outcome — before teardown wipes the
     in-flight assignments. Pending first, then in-flight, in slot order. *)
  let in_flight =
    List.filter_map
      (fun s ->
        match s.proc with
        | Some { assignment = Some a; _ } -> Some a.a_index
        | _ -> None)
      (Array.to_list slots)
  in
  let leftovers = List.of_seq (Queue.to_seq pending) @ in_flight in
  Array.iter
    (fun s ->
      match s.proc with
      | Some p ->
        (* Idle workers get the polite shutdown (stdin EOF -> exit 0); a
           worker still holding a cell — only possible on a stop — is
           killed so teardown never blocks on it. *)
        close_noerr p.stdin_w;
        if Option.is_some p.assignment then
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (restart_on_eintr (fun () -> Unix.waitpid [] p.pid));
        close_noerr p.stdout_r;
        close_noerr p.stderr_r;
        s.proc <- None
      | None -> ())
    slots;
  ( {
      p_spawns = !spawns;
      p_restarts = !restarts;
      p_slot_cells = Array.to_list (Array.map (fun s -> s.cells) slots);
    },
    leftovers )
