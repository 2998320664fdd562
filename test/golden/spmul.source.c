int main() {
  int nr = 512;
  int band = 2;
  int maxnnz = nr * 5;
  int rowptr[nr + 1];
  int col[maxnnz];
  float val[maxnnz];
  float x[nr];
  float y[nr];
  float t;
  int nnz = 0;
  for (int r = 0; r < nr; r = r + 1) {
    rowptr[r] = nnz;
    for (int c = r - band; c <= r + band; c = c + 1) {
      if (c >= 0 && c < nr) {
        col[nnz] = c;
        val[nnz] = 1.0 / (1.0 + float(abs(r - c)));
        nnz = nnz + 1;
      }
    }
  }
  rowptr[nr] = nnz;
  for (int i = 0; i < nr; i = i + 1) {
    x[i] = 1.0 + float(i % 5) * 0.10000000000000001;
  }
  for (int it = 0; it < 8; it = it + 1) {
    #pragma acc kernels loop gang worker private(t)
    for (int r = 0; r < nr; r = r + 1) {
      t = 0.0;
      for (int j = rowptr[r]; j < rowptr[r + 1]; j = j + 1) {
        t = t + val[j] * x[col[j]];
      }
      y[r] = t;
    }
    #pragma acc kernels loop gang worker
    for (int r = 0; r < nr; r = r + 1) {
      x[r] = y[r] * 0.20000000000000001;
    }
  }
  float norm = 0.0;
  for (int i = 0; i < nr; i = i + 1) {
    norm = norm + x[i] * x[i];
  }
  return 0;
}

