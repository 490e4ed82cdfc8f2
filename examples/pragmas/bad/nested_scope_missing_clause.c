/* Seeded clause-scoping counterexample for repro-lint's CI030 (kept
 * out of the CI glob on purpose): a comm_p2p takes its clauses from
 * its innermost enclosing comm_parameters region only, with its own
 * clauses overriding. The inner region below sets sender/receiver but
 * no buffers, so the directive has no sbuf/rbuf: the outer region's
 * buffers do not reach it. The runtime raises ClauseError at the
 * directive; lint reports CI030 on every lowering target. */
double a[8];
double b[8];
int rank, nprocs;

#pragma comm_parameters sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(a) rbuf(b)
{
#pragma comm_parameters sender((rank+1)%nprocs) receiver((rank-1+nprocs)%nprocs)
{
#pragma comm_p2p
}
}
