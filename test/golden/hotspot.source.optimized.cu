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
  for (intt = 0; t < steps; t = t + 1) {
    cudaMalloc(&d_power, sizeof(power)); /* main_kernel0.alloc(power) */
    memcpyin(power, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(power) */
    cudaMalloc(&d_temp, sizeof(temp)); /* main_kernel0.alloc(temp) */
    memcpyin(temp, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(temp) */
    HI_check_read(power, GPU);
    HI_check_read(temp, GPU);
    HI_check_write(temp, GPU);
    kernel0<<<gangs, workers>>>(...);
    memcpyout(power, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(power) */
    memcpyout(temp, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(temp) */
    tmpplane = src;
    src = dst;
    dst = tmpplane;
  }
  float maxt = 0.0;
  HI_check_read(temp, CPU);
  for (int i = 0; i < dim; i = i + 1) {
    for (int j = 0; j < dim; j = j + 1) {
      maxt = max(maxt, temp[src][i][j]);
    }
  }
  return 0;
}
