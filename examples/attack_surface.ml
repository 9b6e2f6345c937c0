(* Attack surface tour: every malicious-hypervisor move from the threat
   model (§III.B), attempted for real against the architecture
   ([Hypervisor.Attacks.host_suite]), and the defence that stops each
   one.

   Run with: dune exec examples/attack_surface.exe
   Exits 1 if any attack leaks. *)

let () =
  print_endline "=== ZION attack surface ===";
  let tb = Platform.Testbed.create () in
  let outcomes = Hypervisor.Attacks.host_suite tb.Platform.Testbed.kvm in
  let leaked =
    List.fold_left
      (fun leaked (name, outcome) ->
        match outcome with
        | Hypervisor.Attacks.Blocked how ->
            Printf.printf "  BLOCKED  %-38s %s\n" name how;
            leaked
        | Hypervisor.Attacks.Leaked what ->
            Printf.printf "  LEAKED!  %-38s %s\n" name what;
            true)
      false outcomes
  in
  print_endline "done: every attack must read BLOCKED above.";
  if leaked then exit 1
