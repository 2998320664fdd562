int main() {
  int n = 28;
  int steps = 8;
  float m[n * n];
  float sa[n];
  float sb[n];
  float da[n];
  float db[n];
  float ca[n];
  float cb[n];
  float *ps;
  float *psold;
  float *pd;
  float *pdold;
  float *pc;
  float *pcold;
  float *tmpp;
  float pv;
  float f;
  for (int i = 0; i < n * n; i = i + 1) {
    m[i] = 1.0 + float(i * 13 % 17) * 0.125;
  }
  for (int i = 0; i < n; i = i + 1) {
    sa[i] = 0.0;
    sb[i] = 0.0;
    da[i] = 0.0;
    db[i] = 0.0;
    ca[i] = 0.0;
    cb[i] = 0.0;
  }
  ps = sa;
  psold = sb;
  pd = da;
  pdold = db;
  pc = ca;
  pcold = cb;
  for (int k = 0; k < steps; k = k + 1) {
    #pragma acc kernels loop gang worker private(pv)
    for (int j = k + 1; j < n; j = j + 1) {
      pv = m[k * n + k];
      m[k * n + j] = m[k * n + j] / (pv + 1.0);
    }
    #pragma acc kernels loop gang worker private(f)
    for (int i = k + 1; i < n; i = i + 1) {
      f = m[i * n + k] / (m[k * n + k] + 1.0);
      for (int j = k + 1; j < n; j = j + 1) {
        m[i * n + j] = m[i * n + j] - f * m[k * n + j];
      }
      m[i * n + k] = f;
    }
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i = i + 1) {
      ps[i] = psold[i] + fabs(m[i * n + k]);
      pd[i] = pdold[i] + (i == k ? fabs(m[k * n + k]) : 0.0);
      pc[i] = pcold[i] + fabs(m[k * n + i]);
    }
    tmpp = ps;
    ps = psold;
    psold = tmpp;
    tmpp = pd;
    pd = pdold;
    pdold = tmpp;
    tmpp = pc;
    pc = pcold;
    pcold = tmpp;
  }
  float lusum = 0.0;
  float ssum = 0.0;
  float dsum = 0.0;
  float csum = 0.0;
  for (int i = 0; i < n * n; i = i + 1) {
    lusum = lusum + fabs(m[i]);
  }
  for (int i = 0; i < n; i = i + 1) {
    ssum = ssum + psold[i];
    dsum = dsum + pdold[i];
    csum = csum + pcold[i];
  }
  return 0;
}

