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
  for (intit = 0; it < iters; it = it + 1) {
    cudaMalloc(&d_g, sizeof(g)); /* main_kernel0.alloc(g) */
    memcpyin(g, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(g) */
    cudaMalloc(&d_img, sizeof(img)); /* main_kernel0.alloc(img) */
    memcpyin(img, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(img) */
    HI_check_read(img, GPU);
    HI_check_write(g, GPU);
    kernel0<<<gangs, workers>>>(...);
    HI_reset_status(g, CPU, notstale);
    memcpyout(g, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(g) */
    memcpyout(img, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(img) */
    cudaMalloc(&d_dn, sizeof(dn)); /* main_kernel1.alloc(dn) */
    memcpyin(dn, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(dn) */
    cudaMalloc(&d_img, sizeof(img)); /* main_kernel1.alloc(img) */
    memcpyin(img, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(img) */
    HI_check_read(img, GPU);
    HI_check_write(dn, GPU);
    kernel1<<<gangs, workers>>>(...);
    HI_reset_status(dn, CPU, notstale);
    memcpyout(dn, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(dn) */
    memcpyout(img, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(img) */
    cudaMalloc(&d_ds, sizeof(ds)); /* main_kernel2.alloc(ds) */
    memcpyin(ds, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(ds) */
    cudaMalloc(&d_img, sizeof(img)); /* main_kernel2.alloc(img) */
    memcpyin(img, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(img) */
    HI_check_read(img, GPU);
    HI_check_write(ds, GPU);
    kernel2<<<gangs, workers>>>(...);
    HI_reset_status(ds, CPU, notstale);
    memcpyout(ds, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(ds) */
    memcpyout(img, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(img) */
    cudaMalloc(&d_dw, sizeof(dw)); /* main_kernel3.alloc(dw) */
    memcpyin(dw, cudaMemcpyHostToDevice); /* main_kernel3.pcopyin(dw) */
    cudaMalloc(&d_img, sizeof(img)); /* main_kernel3.alloc(img) */
    memcpyin(img, cudaMemcpyHostToDevice); /* main_kernel3.pcopyin(img) */
    HI_check_read(img, GPU);
    HI_check_write(dw, GPU);
    kernel3<<<gangs, workers>>>(...);
    HI_reset_status(dw, CPU, notstale);
    memcpyout(dw, cudaMemcpyDeviceToHost); /* main_kernel3.pcopyout(dw) */
    memcpyout(img, cudaMemcpyDeviceToHost); /* main_kernel3.pcopyout(img) */
    cudaMalloc(&d_de, sizeof(de)); /* main_kernel4.alloc(de) */
    memcpyin(de, cudaMemcpyHostToDevice); /* main_kernel4.pcopyin(de) */
    cudaMalloc(&d_img, sizeof(img)); /* main_kernel4.alloc(img) */
    memcpyin(img, cudaMemcpyHostToDevice); /* main_kernel4.pcopyin(img) */
    HI_check_read(img, GPU);
    HI_check_write(de, GPU);
    kernel4<<<gangs, workers>>>(...);
    HI_reset_status(de, CPU, notstale);
    memcpyout(de, cudaMemcpyDeviceToHost); /* main_kernel4.pcopyout(de) */
    memcpyout(img, cudaMemcpyDeviceToHost); /* main_kernel4.pcopyout(img) */
    cudaMalloc(&d_c, sizeof(c)); /* main_kernel5.alloc(c) */
    memcpyin(c, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(c) */
    cudaMalloc(&d_de, sizeof(de)); /* main_kernel5.alloc(de) */
    memcpyin(de, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(de) */
    cudaMalloc(&d_dn, sizeof(dn)); /* main_kernel5.alloc(dn) */
    memcpyin(dn, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(dn) */
    cudaMalloc(&d_ds, sizeof(ds)); /* main_kernel5.alloc(ds) */
    memcpyin(ds, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(ds) */
    cudaMalloc(&d_dw, sizeof(dw)); /* main_kernel5.alloc(dw) */
    memcpyin(dw, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(dw) */
    cudaMalloc(&d_g, sizeof(g)); /* main_kernel5.alloc(g) */
    memcpyin(g, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(g) */
    HI_check_read(de, GPU);
    HI_check_read(dn, GPU);
    HI_check_read(ds, GPU);
    HI_check_read(dw, GPU);
    HI_check_read(g, GPU);
    HI_check_write(c, GPU);
    kernel5<<<gangs, workers>>>(...);
    HI_reset_status(c, CPU, notstale);
    memcpyout(c, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(c) */
    memcpyout(de, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(de) */
    memcpyout(dn, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(dn) */
    memcpyout(ds, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(ds) */
    memcpyout(dw, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(dw) */
    memcpyout(g, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(g) */
    cudaMalloc(&d_c, sizeof(c)); /* main_kernel6.alloc(c) */
    memcpyin(c, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(c) */
    cudaMalloc(&d_de, sizeof(de)); /* main_kernel6.alloc(de) */
    memcpyin(de, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(de) */
    cudaMalloc(&d_dn, sizeof(dn)); /* main_kernel6.alloc(dn) */
    memcpyin(dn, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(dn) */
    cudaMalloc(&d_ds, sizeof(ds)); /* main_kernel6.alloc(ds) */
    memcpyin(ds, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(ds) */
    cudaMalloc(&d_dw, sizeof(dw)); /* main_kernel6.alloc(dw) */
    memcpyin(dw, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(dw) */
    cudaMalloc(&d_img, sizeof(img)); /* main_kernel6.alloc(img) */
    memcpyin(img, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(img) */
    HI_check_read(c, GPU);
    HI_check_read(de, GPU);
    HI_check_read(dn, GPU);
    HI_check_read(ds, GPU);
    HI_check_read(dw, GPU);
    HI_check_read(img, GPU);
    HI_check_write(img, GPU);
    kernel6<<<gangs, workers>>>(...);
    memcpyout(c, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(c) */
    memcpyout(de, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(de) */
    memcpyout(dn, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(dn) */
    memcpyout(ds, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(ds) */
    memcpyout(dw, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(dw) */
    memcpyout(img, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(img) */
    memcpyout(img, cudaMemcpyDeviceToHost); /* update0.host(img) */
  }
  mean = 0.0;
  HI_check_read(img, CPU);
  for (int i = 0; i < dim; i = i + 1) {
    for (int j = 0; j < dim; j = j + 1) {
      mean = mean + img[i][j];
    }
  }
  mean = mean / float(dim * dim);
  cudaMalloc(&d_g, sizeof(g)); /* main_kernel7.alloc(g) */
  memcpyin(g, cudaMemcpyHostToDevice); /* main_kernel7.pcopyin(g) */
  cudaMalloc(&d_img, sizeof(img)); /* main_kernel7.alloc(img) */
  memcpyin(img, cudaMemcpyHostToDevice); /* main_kernel7.pcopyin(img) */
  HI_check_read(img, GPU);
  HI_check_write(g, GPU);
  kernel7<<<gangs, workers>>>(...);
  HI_reset_status(g, CPU, notstale);
  memcpyout(g, cudaMemcpyDeviceToHost); /* main_kernel7.pcopyout(g) */
  memcpyout(img, cudaMemcpyDeviceToHost); /* main_kernel7.pcopyout(img) */
  return 0;
}
