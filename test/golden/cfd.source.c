int main() {
  int n = 64;
  int steps = 5;
  int verbose = 0;
  float dens[n];
  float momx[n];
  float momy[n];
  float ener[n];
  float dens_old[n];
  float momx_old[n];
  float momy_old[n];
  float ener_old[n];
  float sf[n];
  float fluxd[n];
  float fluxmx[n];
  float fluxmy[n];
  float fluxe[n];
  float t1;
  float t2;
  float t3;
  float vcheck = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    dens[i] = 1.0 + 0.01 * float(i % 11);
    momx[i] = 0.10000000000000001 * float(i % 7);
    momy[i] = 0.050000000000000003 * float(i % 5);
    ener[i] = 2.0 + 0.01 * float(i % 13);
  }
  for (int t = 0; t < steps; t = t + 1) {
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i = i + 1) {
      dens_old[i] = dens[i];
      momx_old[i] = momx[i];
      momy_old[i] = momy[i];
      ener_old[i] = ener[i];
    }
    #pragma acc kernels loop gang worker private(t1)
    for (int i = 0; i < n; i = i + 1) {
      t1 = dens[i] * dens[i] + momx[i] * momx[i] + momy[i] * momy[i] + 0.10000000000000001;
      sf[i] = 0.5 / sqrt(t1);
    }
    #pragma acc kernels loop gang worker private(t2)
    for (int i = 0; i < n; i = i + 1) {
      t2 = momx[i] + momy[i];
      fluxd[i] = t2 - dens[i] * 0.10000000000000001;
    }
    #pragma acc kernels loop gang worker private(t3)
    for (int i = 0; i < n; i = i + 1) {
      t3 = (ener[i] + dens[i] * 0.40000000000000002) / (dens[i] + 0.5);
      fluxmx[i] = momx[i] * t3;
    }
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i = i + 1) {
      fluxmy[i] = momy[i] * (ener[i] + dens[i] * 0.40000000000000002) / (dens[i] + 0.5);
    }
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i = i + 1) {
      fluxe[i] = (momx[i] + momy[i]) * (ener[i] + 0.40000000000000002) / (dens[i] + 0.5);
    }
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i = i + 1) {
      dens[i] = dens_old[i] + sf[i] * fluxd[i] * 0.01;
    }
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i = i + 1) {
      momx[i] = momx_old[i] + sf[i] * fluxmx[i] * 0.01;
      momy[i] = momy_old[i] + sf[i] * fluxmy[i] * 0.01;
    }
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i = i + 1) {
      ener[i] = ener_old[i] + sf[i] * fluxe[i] * 0.01;
    }
    #pragma acc update host(ener)
    if (verbose == 1) {
      for (int i = 0; i < n; i = i + 1) {
        vcheck = vcheck + ener[i];
      }
    }
  }
  float dsum = 0.0;
  float esum = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    dsum = dsum + dens[i];
    esum = esum + ener[i];
  }
  return 0;
}

