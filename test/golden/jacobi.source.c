int main() {
  int n = 1024;
  int iters = 20;
  float a[n];
  float b[n];
  for (int i = 0; i < n; i = i + 1) {
    a[i] = float(i % 13) * 0.25 + 1.0;
    b[i] = 0.0;
  }
  for (int k = 0; k < iters; k = k + 1) {
    #pragma acc kernels loop gang worker
    for (int i = 1; i < n - 1; i = i + 1) {
      b[i] = 0.5 * (a[i - 1] + a[i + 1]);
    }
    #pragma acc kernels loop gang worker
    for (int i = 1; i < n - 1; i = i + 1) {
      a[i] = b[i];
    }
    #pragma acc update host(b)
  }
  float resid = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    resid = resid + fabs(b[i] - a[i]);
  }
  return 0;
}

