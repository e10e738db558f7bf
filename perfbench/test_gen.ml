(* Seed handling of the benchmark's input generators: the same seed gives
   byte-identical inputs, a different seed changes them.  The steering
   workload repeats one fixed instance, so its inputs are the same for
   every seed. *)

module G = Perfbench_lib.Gen

let () =
  let failures = ref 0 in
  let expect what ok =
    if not ok then begin
      incr failures;
      Printf.printf "FAIL %s\n" what
    end
  in
  List.iter
    (fun w ->
      let a = G.fingerprint w 1 and a' = G.fingerprint w 1 and b = G.fingerprint w 2 in
      expect (w ^ ": same seed, same bytes") (String.equal a a');
      if w = "steering" then expect (w ^ ": seed-independent") (String.equal a b)
      else expect (w ^ ": other seed, other bytes") (not (String.equal a b)))
    [ "steering"; "fischer_enum"; "server_mix" ];
  if !failures > 0 then exit 1
