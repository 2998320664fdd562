/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(double *g, double *img, int dim)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < dim) {
    for (int j = 0; j < dim; j = j + 1) {
      g[i][j] = img[i][j] * img[i][j];
    }
  }
}

__global__ void main_kernel1(double *dn, double *img, int dim)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < dim) {
    for (int j = 0; j < dim; j = j + 1) {
      dn[i][j] = i > 0 ? img[i - 1][j] - img[i][j] : 0.0;
    }
  }
}

__global__ void main_kernel2(double *ds, double *img, int dim)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < dim) {
    for (int j = 0; j < dim; j = j + 1) {
      ds[i][j] = i < dim - 1 ? img[i + 1][j] - img[i][j] : 0.0;
    }
  }
}

__global__ void main_kernel3(double *dw, double *img, int dim)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < dim) {
    for (int j = 0; j < dim; j = j + 1) {
      dw[i][j] = j > 0 ? img[i][j - 1] - img[i][j] : 0.0;
    }
  }
}

__global__ void main_kernel4(double *de, double *img, int dim)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < dim) {
    for (int j = 0; j < dim; j = j + 1) {
      de[i][j] = j < dim - 1 ? img[i][j + 1] - img[i][j] : 0.0;
    }
  }
}

__global__ void main_kernel5(double *c, double *de, double *dn, double *ds, double *dw, double *g, int dim)
{
  double qsq; /* private (per-thread register) */
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < dim) {
    for (int j = 0; j < dim; j = j + 1) {
      qsq = (dn[i][j] * dn[i][j] + ds[i][j] * ds[i][j] + dw[i][j] * dw[i][j] + de[i][j] * de[i][j]) / (g[i][j] + 0.0001);
      c[i][j] = 1.0 / (1.0 + qsq);
    }
  }
}

__global__ void main_kernel6(double *c, double *de, double *dn, double *ds, double *dw, double *img, int dim, double lambda)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < dim) {
    for (int j = 0; j < dim; j = j + 1) {
      img[i][j] = img[i][j] + 0.25 * lambda * c[i][j] * (dn[i][j] + ds[i][j] + dw[i][j] + de[i][j]);
    }
  }
}

__global__ void main_kernel7(double *g, double *img, int dim, double mean)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < dim) {
    for (int j = 0; j < dim; j = j + 1) {
      g[i][j] = img[i][j] / (mean + 0.0001);
    }
  }
}

int main()
{
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
  HI_check_write(img, CPU);
  for (int i = 0; i < dim; i = i + 1) {
    for (int j = 0; j < dim; j = j + 1) {
      img[i][j] = 1.0 + 0.01 * float((i * dim + j) * 29 % 53);
    }
  }
  cudaMalloc(&d_img, sizeof(img)); /* data120.alloc(img) */
  memcpyin(img, cudaMemcpyHostToDevice); /* data120.copyin(img) */
  cudaMalloc(&d_g, sizeof(g)); /* data120.alloc(g) */
  cudaMalloc(&d_dn, sizeof(dn)); /* data120.alloc(dn) */
  cudaMalloc(&d_ds, sizeof(ds)); /* data120.alloc(ds) */
  cudaMalloc(&d_dw, sizeof(dw)); /* data120.alloc(dw) */
  cudaMalloc(&d_de, sizeof(de)); /* data120.alloc(de) */
  cudaMalloc(&d_c, sizeof(c)); /* data120.alloc(c) */
  {
    HI_check_read(img, GPU);
    HI_check_write(g, GPU);
    HI_check_write(dn, GPU);
    HI_check_write(ds, GPU);
    HI_check_write(dw, GPU);
    HI_check_write(de, GPU);
    HI_check_read(de, GPU);
    HI_check_read(dn, GPU);
    HI_check_read(ds, GPU);
    HI_check_read(dw, GPU);
    HI_check_read(g, GPU);
    HI_check_write(c, GPU);
    HI_check_read(c, GPU);
    HI_check_write(img, GPU);
    for (intit = 0; it < iters; it = it + 1) {
      kernel0<<<gangs, workers>>>(...);
      HI_reset_status(g, CPU, notstale);
      kernel1<<<gangs, workers>>>(...);
      HI_reset_status(dn, CPU, notstale);
      kernel2<<<gangs, workers>>>(...);
      HI_reset_status(ds, CPU, notstale);
      kernel3<<<gangs, workers>>>(...);
      HI_reset_status(dw, CPU, notstale);
      kernel4<<<gangs, workers>>>(...);
      HI_reset_status(de, CPU, notstale);
      kernel5<<<gangs, workers>>>(...);
      HI_reset_status(c, CPU, notstale);
      kernel6<<<gangs, workers>>>(...);
    }
    memcpyout(img, cudaMemcpyDeviceToHost); /* update0.host(img) */
    mean = 0.0;
    HI_check_read(img, CPU);
    for (int i = 0; i < dim; i = i + 1) {
      for (int j = 0; j < dim; j = j + 1) {
        mean = mean + img[i][j];
      }
    }
    mean = mean / float(dim * dim);
    HI_check_read(img, GPU);
    HI_check_write(g, GPU);
    kernel7<<<gangs, workers>>>(...);
    HI_reset_status(g, CPU, notstale);
  }
  cudaFree(d_img); /* data120.free(img) */
  cudaFree(d_g); /* data120.free(g) */
  cudaFree(d_dn); /* data120.free(dn) */
  cudaFree(d_ds); /* data120.free(ds) */
  cudaFree(d_dw); /* data120.free(dw) */
  cudaFree(d_de); /* data120.free(de) */
  cudaFree(d_c); /* data120.free(c) */
  return 0;
}
