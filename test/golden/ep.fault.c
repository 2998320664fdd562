int main() {
  int n = 4096;
  int seeds[n];
  int s;
  float acc1 = 0.0;
  #pragma acc kernels loop gang worker
  for (int i = 0; i < n; i = i + 1) {
    s = (i * 2531011 + 331) % 65536;
    s = (s * 1103 + 12345) % 65536;
    seeds[i] = s;
  }
  #pragma acc kernels loop gang worker
  for (int i = 0; i < n; i = i + 1) {
    acc1 = acc1 + float((seeds[i] * 214013 + 2531011) % 10007) * 0.0001;
  }
  float result = acc1 / float(n);
  return 0;
}

