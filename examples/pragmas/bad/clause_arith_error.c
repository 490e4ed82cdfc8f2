/* Seeded counterexample for repro-lint's CI004 (kept out of the CI
 * glob on purpose): the sender expression takes the rank modulo
 * nprocs-nprocs, which is zero on every world, so no rank can name
 * its source. repro-lint reports CI004 naming the sender clause and
 * the first failing rank; the runtime raises ClauseError at the
 * directive. */
double a[8];
double b[8];
int rank, nprocs;

#pragma comm_p2p sender((rank-1)%(nprocs-nprocs)) receiver((rank+1)%nprocs) sbuf(a) rbuf(b)
{
}
consume(b);
