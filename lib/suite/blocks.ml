(** A scalable program for cost-growth checks: [k] renamed copies of three
    blocks over five arrays of their own — JACOBI's sweep with an in-loop
    [update host] and a host residual, EP's private + reduction pair, and
    an accumulate loop in a data region with a redundant [update device].
    The copies share nothing, so every count over the program (checks,
    lint findings) is [k] times one copy's, and a pass that costs more
    than linear time in the program shows as faster growth than [k]'s.
    At [k = 40] the 200 tracked arrays span 4 words and the transfer
    lint's stale bits 7. *)

let three k =
  let block i =
    String.concat (string_of_int i)
      (String.split_on_char '@'
         "float a@[n];\n\
          float b@[n];\n\
          for (int i = 0; i < n; i++) { a@[i] = float(i % 13) * 0.25 + 1.0; \
          b@[i] = 0.0; }\n\
          for (int t = 0; t < 3; t++) {\n\
          #pragma acc kernels loop\n\
          for (int i = 1; i < n - 1; i++) { b@[i] = 0.5 * (a@[i - 1] + a@[i \
          + 1]); }\n\
          #pragma acc kernels loop\n\
          for (int i = 1; i < n - 1; i++) { a@[i] = b@[i]; }\n\
          #pragma acc update host(b@)\n\
          }\n\
          float r@ = 0.0;\n\
          for (int i = 0; i < n; i++) { r@ = r@ + b@[i]; }\n\
          r@ = r@ + b@[0];\n\
          float x@[n];\n\
          float s@ = 0.0;\n\
          float q@ = 0.0;\n\
          for (int i = 0; i < n; i++) { x@[i] = float(i % 7); }\n\
          #pragma acc kernels loop private(q@) reduction(+:s@)\n\
          for (int i = 0; i < n; i++) { q@ = x@[i] * 2.0; s@ = s@ + q@; }\n\
          float c@[n];\n\
          float d@[n];\n\
          for (int i = 0; i < n; i++) { c@[i] = 1.0; d@[i] = 0.0; }\n\
          #pragma acc data copyin(c@) copy(d@)\n\
          {\n\
          for (int t = 0; t < 2; t++) {\n\
          #pragma acc kernels loop\n\
          for (int i = 0; i < n; i++) { d@[i] = d@[i] + c@[i]; }\n\
          #pragma acc update device(c@)\n\
          }\n\
          }\n")
  in
  "int main() { int n = 16;\n" ^ String.concat "" (List.init k block)
  ^ "return 0; }"
