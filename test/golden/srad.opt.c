int main() {
  int dim = 20;
  int iters = 6;
  float img[dim][dim];
  float g[dim][dim];
  float dn[dim][dim];
  float ds[dim][dim];
  float dw[dim][dim];
  float de[dim][dim];
  float c[dim][dim];
  float qsq;
  float mean = 0.0;
  float lambda = 0.050000000000000003;
  for (int i = 0; i < dim; i = i + 1) {
    for (int j = 0; j < dim; j = j + 1) {
      img[i][j] = 1.0 + 0.01 * float((i * dim + j) * 29 % 53);
    }
  }
  #pragma acc data copyin(img) create(g, dn, ds, dw, de, c)
  {
    for (int it = 0; it < iters; it = it + 1) {
      #pragma acc kernels loop gang worker
      for (int i = 0; i < dim; i = i + 1) {
        for (int j = 0; j < dim; j = j + 1) {
          g[i][j] = img[i][j] * img[i][j];
        }
      }
      #pragma acc kernels loop gang worker
      for (int i = 0; i < dim; i = i + 1) {
        for (int j = 0; j < dim; j = j + 1) {
          dn[i][j] = i > 0 ? img[i - 1][j] - img[i][j] : 0.0;
        }
      }
      #pragma acc kernels loop gang worker
      for (int i = 0; i < dim; i = i + 1) {
        for (int j = 0; j < dim; j = j + 1) {
          ds[i][j] = i < dim - 1 ? img[i + 1][j] - img[i][j] : 0.0;
        }
      }
      #pragma acc kernels loop gang worker
      for (int i = 0; i < dim; i = i + 1) {
        for (int j = 0; j < dim; j = j + 1) {
          dw[i][j] = j > 0 ? img[i][j - 1] - img[i][j] : 0.0;
        }
      }
      #pragma acc kernels loop gang worker
      for (int i = 0; i < dim; i = i + 1) {
        for (int j = 0; j < dim; j = j + 1) {
          de[i][j] = j < dim - 1 ? img[i][j + 1] - img[i][j] : 0.0;
        }
      }
      #pragma acc kernels loop gang worker private(qsq)
      for (int i = 0; i < dim; i = i + 1) {
        for (int j = 0; j < dim; j = j + 1) {
          qsq = (dn[i][j] * dn[i][j] + ds[i][j] * ds[i][j] + dw[i][j] * dw[i][j] + de[i][j] * de[i][j]) / (g[i][j] + 0.0001);
          c[i][j] = 1.0 / (1.0 + qsq);
        }
      }
      #pragma acc kernels loop gang worker
      for (int i = 0; i < dim; i = i + 1) {
        for (int j = 0; j < dim; j = j + 1) {
          img[i][j] = img[i][j] + 0.25 * lambda * c[i][j] * (dn[i][j] + ds[i][j] + dw[i][j] + de[i][j]);
        }
      }
    }
    #pragma acc update host(img)
    mean = 0.0;
    for (int i = 0; i < dim; i = i + 1) {
      for (int j = 0; j < dim; j = j + 1) {
        mean = mean + img[i][j];
      }
    }
    mean = mean / float(dim * dim);
    #pragma acc kernels loop gang worker
    for (int i = 0; i < dim; i = i + 1) {
      for (int j = 0; j < dim; j = j + 1) {
        g[i][j] = img[i][j] / (mean + 0.0001);
      }
    }
  }
  return 0;
}

