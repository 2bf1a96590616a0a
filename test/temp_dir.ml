(* A fresh empty directory for one test, removed with the files in it
   afterwards, whatever the test does. Shared by the test suites. *)

let with_temp_dir f =
  let dir = Filename.temp_file "rcsim_test" "" in
  Sys.remove dir;
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)
