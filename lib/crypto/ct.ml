(* Constant-time(-shaped) comparison.

   OCaml cannot promise cycle-exact constant time, but the comparison is
   branch-free over the data so the *interface discipline* — never
   early-exit on a tag mismatch — is preserved, which is what the safe-
   interface principles require of implementations. *)

let equal_at a a_off b b_off ~len =
  let acc = ref 0 in
  for i = 0 to len - 1 do
    acc := !acc lor (Char.code (Bytes.get a (a_off + i)) lxor Char.code (Bytes.get b (b_off + i)))
  done;
  !acc = 0

let equal a b = Bytes.length a = Bytes.length b && equal_at a 0 b 0 ~len:(Bytes.length a)
