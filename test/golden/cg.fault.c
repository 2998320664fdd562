int main() {
  int n = 256;
  int band = 2;
  int maxnnz = n * 5;
  int rowptr[n + 1];
  int col[maxnnz];
  float aval[maxnnz];
  float x[n];
  float z[n];
  float p[n];
  float q[n];
  float r[n];
  float w[n];
  float t;
  float t2;
  float rho = 0.0;
  float d = 0.0;
  float alpha = 0.0;
  float beta = 0.0;
  float rho0 = 0.0;
  int nnz = 0;
  for (int row = 0; row < n; row = row + 1) {
    rowptr[row] = nnz;
    for (int c = row - band; c <= row + band; c = c + 1) {
      if (c >= 0 && c < n) {
        col[nnz] = c;
        aval[nnz] = row == c ? 4.0 : (-1.0) / (1.0 + float(abs(row - c)));
        nnz = nnz + 1;
      }
    }
  }
  rowptr[n] = nnz;
  for (int i = 0; i < n; i = i + 1) {
    x[i] = 1.0 + float(i % 3) * 0.10000000000000001;
    q[i] = 0.0;
  }
  for (int it = 0; it < 3; it = it + 1) {
    #pragma acc kernels loop gang worker
    for (int j = 0; j < n; j = j + 1) {
      q[j] = 0.0;
      z[j] = 0.0;
      r[j] = x[j];
      p[j] = x[j];
    }
    rho = 0.0;
    #pragma acc kernels loop gang worker
    for (int j = 0; j < n; j = j + 1) {
      rho = rho + r[j] * r[j];
    }
    for (int cgit = 0; cgit < 4; cgit = cgit + 1) {
      #pragma acc kernels loop gang worker
      for (int row = 0; row < n; row = row + 1) {
        t = 0.0;
        for (int k = rowptr[row]; k < rowptr[row + 1]; k = k + 1) {
          t = t + aval[k] * p[col[k]];
        }
        q[row] = t;
      }
      d = 0.0;
      #pragma acc kernels loop gang worker
      for (int j = 0; j < n; j = j + 1) {
        d = d + p[j] * q[j];
      }
      alpha = rho / d;
      rho0 = rho;
      #pragma acc kernels loop gang worker
      for (int j = 0; j < n; j = j + 1) {
        z[j] = z[j] + alpha * p[j];
        r[j] = r[j] - alpha * q[j];
      }
      #pragma acc update host(r)
      rho = 0.0;
      for (int j = 0; j < n; j = j + 1) {
        rho = rho + r[j] * r[j];
      }
      beta = rho / rho0;
      #pragma acc kernels loop gang worker
      for (int j = 0; j < n; j = j + 1) {
        p[j] = r[j] + beta * p[j];
      }
    }
    #pragma acc kernels loop gang worker
    for (int row = 0; row < n; row = row + 1) {
      t2 = 0.0;
      for (int k = rowptr[row]; k < rowptr[row + 1]; k = k + 1) {
        t2 = t2 + aval[k] * z[col[k]];
      }
      w[row] = t2;
    }
    #pragma acc kernels loop gang worker
    for (int j = 0; j < n; j = j + 1) {
      x[j] = 0.90000000000000002 * x[j] + 0.10000000000000001 * w[j];
    }
    #pragma acc kernels loop gang worker
    for (int j = 0; j < n; j = j + 1) {
      z[j] = z[j] * 0.5;
    }
  }
  float xnorm = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    xnorm = xnorm + x[i] * x[i];
  }
  return 0;
}

