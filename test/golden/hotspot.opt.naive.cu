/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(double *power, double *temp, int dim, int dst, int src)
{
  double delta; /* private (per-thread register) */
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < dim) {
    for (int j = 0; j < dim; j = j + 1) {
      delta = power[i][j];
      if (i > 0) {
        delta = delta + 0.10000000000000001 * (temp[src][i - 1][j] - temp[src][i][j]);
      }
      if (i < dim - 1) {
        delta = delta + 0.10000000000000001 * (temp[src][i + 1][j] - temp[src][i][j]);
      }
      if (j > 0) {
        delta = delta + 0.10000000000000001 * (temp[src][i][j - 1] - temp[src][i][j]);
      }
      if (j < dim - 1) {
        delta = delta + 0.10000000000000001 * (temp[src][i][j + 1] - temp[src][i][j]);
      }
      temp[dst][i][j] = temp[src][i][j] + delta;
    }
  }
}

int main()
{
  int dim = 24;
  int steps = 12;
  float temp[2][dim][dim];
  float power[dim][dim];
  float delta;
  int src = 0;
  int dst = 1;
  int tmpplane = 0;
  HI_check_write(power, CPU);
  HI_check_write(temp, CPU);
  for (int i = 0; i < dim; i = i + 1) {
    for (int j = 0; j < dim; j = j + 1) {
      temp[0][i][j] = 320.0 + float((i * dim + j) % 17) * 0.5;
      temp[1][i][j] = 0.0;
      power[i][j] = 0.001 * float((i * dim + j) % 7);
    }
  }
  cudaMalloc(&d_temp, sizeof(temp)); /* data51.alloc(temp) */
  memcpyin(temp, cudaMemcpyHostToDevice); /* data51.copy(temp) */
  cudaMalloc(&d_power, sizeof(power)); /* data51.alloc(power) */
  memcpyin(power, cudaMemcpyHostToDevice); /* data51.copyin(power) */
  {
    for (intt = 0; t < steps; t = t + 1) {
      HI_check_read(power, GPU);
      HI_check_read(temp, GPU);
      HI_check_write(temp, GPU);
      kernel0<<<gangs, workers>>>(...);
      tmpplane = src;
      src = dst;
      dst = tmpplane;
    }
  }
  memcpyout(temp, cudaMemcpyDeviceToHost); /* data51.copyout(temp) */
  cudaFree(d_temp); /* data51.free(temp) */
  cudaFree(d_power); /* data51.free(power) */
  float maxt = 0.0;
  HI_check_read(temp, CPU);
  for (int i = 0; i < dim; i = i + 1) {
    for (int j = 0; j < dim; j = j + 1) {
      maxt = max(maxt, temp[src][i][j]);
    }
  }
  return 0;
}
