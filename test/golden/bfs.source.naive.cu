/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(int *frontier, int *levels, int *nextf, int depth, int nv)
{
  int v = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (v < nv) {
    if (frontier[v] == 1) {
      if (levels[(v + 1) % nv] == 0 - 1) {
        levels[(v + 1) % nv] = depth + 1;
        nextf[(v + 1) % nv] = 1;
      }
      if (levels[(v + 7) % nv] == 0 - 1) {
        levels[(v + 7) % nv] = depth + 1;
        nextf[(v + 7) % nv] = 1;
      }
    }
  }
}

__global__ void main_kernel1(int *frontier, int *nextf, int nv)
{
  int v = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (v < nv) {
    frontier[v] = nextf[v];
    nextf[v] = 0;
  }
}

int main()
{
  int nv = 64;
  int maxdepth = 40;
  int dfinal = 0;
  int levels[nv];
  int frontier[nv];
  int nextf[nv];
  int cont = 1;
  HI_check_write(frontier, CPU);
  HI_check_write(levels, CPU);
  HI_check_write(nextf, CPU);
  for (int i = 0; i < nv; i = i + 1) {
    levels[i] = 0 - 1;
    frontier[i] = 0;
    nextf[i] = 0;
  }
  HI_reset_status(nextf, GPU, notstale);
  HI_check_write(frontier, CPU);
  frontier[0] = 1;
  HI_check_write(levels, CPU);
  levels[0] = 0;
  for (intdepth = 0; depth < maxdepth; depth = depth + 1) {
    cudaMalloc(&d_frontier, sizeof(frontier)); /* main_kernel0.alloc(frontier) */
    memcpyin(frontier, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(frontier) */
    cudaMalloc(&d_levels, sizeof(levels)); /* main_kernel0.alloc(levels) */
    memcpyin(levels, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(levels) */
    cudaMalloc(&d_nextf, sizeof(nextf)); /* main_kernel0.alloc(nextf) */
    memcpyin(nextf, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(nextf) */
    HI_check_read(frontier, GPU);
    HI_check_read(levels, GPU);
    HI_check_write(levels, GPU);
    HI_check_write(nextf, GPU);
    kernel0<<<gangs, workers>>>(...);
    HI_reset_status(nextf, CPU, notstale);
    memcpyout(frontier, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(frontier) */
    memcpyout(levels, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(levels) */
    memcpyout(nextf, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(nextf) */
    cudaMalloc(&d_frontier, sizeof(frontier)); /* main_kernel1.alloc(frontier) */
    memcpyin(frontier, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(frontier) */
    cudaMalloc(&d_nextf, sizeof(nextf)); /* main_kernel1.alloc(nextf) */
    memcpyin(nextf, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(nextf) */
    HI_check_read(nextf, GPU);
    HI_check_write(frontier, GPU);
    HI_check_write(nextf, GPU);
    kernel1<<<gangs, workers>>>(...);
    HI_reset_status(nextf, CPU, notstale);
    memcpyout(frontier, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(frontier) */
    memcpyout(nextf, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(nextf) */
    memcpyout(frontier, cudaMemcpyDeviceToHost); /* update0.host(frontier) */
    cont = 0;
    HI_check_read(frontier, CPU);
    for (int v = 0; v < nv; v = v + 1) {
      if (frontier[v] == 1) {
        cont = 1;
      }
    }
    if (cont == 1) {
      dfinal = depth + 1;
    }
    if (cont == 0) {
      break;
    }
  }
  int reached = 0;
  HI_check_read(levels, CPU);
  for (int i = 0; i < nv; i = i + 1) {
    if (levels[i] >= 0) {
      reached = reached + 1;
    }
  }
  return 0;
}
