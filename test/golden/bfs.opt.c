int main() {
  int nv = 64;
  int maxdepth = 40;
  int dfinal = 0;
  int levels[nv];
  int frontier[nv];
  int nextf[nv];
  int cont = 1;
  for (int i = 0; i < nv; i = i + 1) {
    levels[i] = 0 - 1;
    frontier[i] = 0;
    nextf[i] = 0;
  }
  frontier[0] = 1;
  levels[0] = 0;
  #pragma acc data create(nextf) copy(levels) copyin(frontier)
  {
    for (int depth = 0; depth < maxdepth; depth = depth + 1) {
      #pragma acc kernels loop gang worker
      for (int v = 0; v < nv; v = v + 1) {
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
      #pragma acc kernels loop gang worker
      for (int v = 0; v < nv; v = v + 1) {
        frontier[v] = nextf[v];
        nextf[v] = 0;
      }
      #pragma acc update host(frontier)
      cont = 0;
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
  }
  int reached = 0;
  for (int i = 0; i < nv; i = i + 1) {
    if (levels[i] >= 0) {
      reached = reached + 1;
    }
  }
  return 0;
}

