int main() {
  int npts = 128;
  int nclu = 4;
  int nf = 3;
  int iters = 6;
  float pts[npts][nf];
  float centroids[nclu][nf];
  int membership[npts];
  float errs[npts];
  float bestd;
  int bestc;
  float dsum;
  float dmin;
  for (int i = 0; i < npts; i = i + 1) {
    for (int f = 0; f < nf; f = f + 1) {
      pts[i][f] = float((i * 37 + f * 11) % 100) * 0.01;
    }
  }
  for (int c = 0; c < nclu; c = c + 1) {
    for (int f = 0; f < nf; f = f + 1) {
      centroids[c][f] = 0.25 * float(c) + 0.050000000000000003 * float(f);
    }
  }
  for (int it = 0; it < iters; it = it + 1) {
    #pragma acc kernels loop gang worker
    for (int i = 0; i < npts; i = i + 1) {
      bestd = 1000000.0;
      bestc = 0;
      for (int c = 0; c < nclu; c = c + 1) {
        dsum = 0.0;
        for (int f = 0; f < nf; f = f + 1) {
          dsum = dsum + (pts[i][f] - centroids[c][f]) * (pts[i][f] - centroids[c][f]);
        }
        if (dsum < bestd) {
          bestd = dsum;
          bestc = c;
        }
      }
      membership[i] = bestc;
    }
    #pragma acc kernels loop gang worker
    for (int i = 0; i < npts; i = i + 1) {
      dmin = 0.0;
      for (int f = 0; f < nf; f = f + 1) {
        dmin = dmin + (pts[i][f] - centroids[membership[i]][f]) * (pts[i][f] - centroids[membership[i]][f]);
      }
      errs[i] = dmin;
    }
    #pragma acc update host(membership)
    for (int c = 0; c < nclu; c = c + 1) {
      float cnt = 0.0;
      for (int f = 0; f < nf; f = f + 1) {
        float s = 0.0;
        cnt = 0.0;
        for (int i = 0; i < npts; i = i + 1) {
          if (membership[i] == c) {
            s = s + pts[i][f];
            cnt = cnt + 1.0;
          }
        }
        if (cnt > 0.0) {
          centroids[c][f] = s / cnt;
        }
      }
    }
  }
  float toterr = 0.0;
  for (int i = 0; i < npts; i = i + 1) {
    toterr = toterr + errs[i];
  }
  return 0;
}

