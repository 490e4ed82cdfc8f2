/* Seeded counterexample: the region declares max_comm_iter(1) but holds
 * two comm_p2p instances, so the generated synchronization bookkeeping
 * overflows. repro-lint reports CI033 on every lowering target; the
 * runtime raises ClauseError on the second instance. */
double a[16];
double b[16];
double c[16];
double d[16];
int rank, nprocs;

#pragma comm_parameters sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) max_comm_iter(1)
{
#pragma comm_p2p sbuf(a) rbuf(b)
#pragma comm_p2p sbuf(c) rbuf(d)
}
consume(b);
consume(d);
