//! The qubit plane: a grid of surface-code blocks.

use crate::isa::LogicalQubitId;

/// Position of a block (a surface-code patch slot) on the qubit plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockCoord {
    /// Block row.
    pub row: usize,
    /// Block column.
    pub col: usize,
}

impl BlockCoord {
    /// Creates a block coordinate.
    pub fn new(row: usize, col: usize) -> Self {
        Self { row, col }
    }
}

/// The state of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Unused; available for routing or code expansion.
    Vacant,
    /// Hosts a logical qubit.
    Logical(LogicalQubitId),
    /// Temporarily reserved as routing space or expansion space until the
    /// given cycle.
    Reserved {
        /// Cycle (exclusive) until which the reservation holds.
        until_cycle: u64,
    },
    /// Marked anomalous (struck by a cosmic ray) until the given cycle.
    Anomalous {
        /// Cycle (exclusive) until which the block stays anomalous.
        until_cycle: u64,
    },
}

/// A rectangular grid of surface-code blocks with the checkerboard qubit
/// allocation of the paper (Sec. II-B): blocks whose row *and* column index
/// are odd host logical qubits, everything else is vacant routing space.
#[derive(Debug, Clone)]
pub struct QubitPlane {
    rows: usize,
    cols: usize,
    states: Vec<BlockState>,
    /// Block of each logical qubit, indexed by its dense id.
    logical_positions: Vec<BlockCoord>,
    /// A lower bound on the `until_cycle` of every reserved or anomalous
    /// block (`u64::MAX` when there is none), so [`QubitPlane::expire`] can
    /// skip the block scan while nothing can expire.
    next_expiry: u64,
}

/// Reusable buffers of the routing BFS over flat block indices.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouteScratch {
    /// BFS parent of each visited block; a seed is its own parent.
    parent: Vec<usize>,
    /// Blocks in visiting order (the BFS queue, consumed from the front).
    frontier: Vec<usize>,
    /// The flat indices of the route found by the last successful search,
    /// from `a`'s side.
    pub(crate) path: Vec<usize>,
}

const UNSEEN: usize = usize::MAX;

impl QubitPlane {
    /// Creates a plane of `rows × cols` blocks with logical qubits allocated
    /// on the odd/odd checkerboard.
    ///
    /// # Panics
    ///
    /// Panics if the plane is smaller than 3×3 blocks.
    pub fn checkerboard(rows: usize, cols: usize) -> Self {
        assert!(
            rows >= 3 && cols >= 3,
            "the qubit plane needs at least 3×3 blocks"
        );
        let mut states = vec![BlockState::Vacant; rows * cols];
        let mut logical_positions = Vec::new();
        for row in (1..rows).step_by(2) {
            for col in (1..cols).step_by(2) {
                let id = LogicalQubitId(logical_positions.len());
                states[row * cols + col] = BlockState::Logical(id);
                logical_positions.push(BlockCoord::new(row, col));
            }
        }
        Self {
            rows,
            cols,
            states,
            logical_positions,
            next_expiry: u64::MAX,
        }
    }

    /// Number of block rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of block columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of logical qubits hosted on the plane.
    pub fn num_logical_qubits(&self) -> usize {
        self.logical_positions.len()
    }

    /// The logical qubit identifiers in allocation order.
    pub fn logical_qubits(&self) -> Vec<LogicalQubitId> {
        (0..self.logical_positions.len())
            .map(LogicalQubitId)
            .collect()
    }

    /// The block hosting a logical qubit.
    pub fn position_of(&self, qubit: LogicalQubitId) -> Option<BlockCoord> {
        self.logical_positions.get(qubit.0).copied()
    }

    fn index(&self, block: BlockCoord) -> usize {
        assert!(
            block.row < self.rows && block.col < self.cols,
            "block {block:?} out of range"
        );
        block.row * self.cols + block.col
    }

    fn coord(&self, index: usize) -> BlockCoord {
        BlockCoord::new(index / self.cols, index % self.cols)
    }

    /// The flat indices of the neighbours of `index` (fewer at the plane
    /// edge), in the order the routing BFS visits them: up, down, left,
    /// right.
    fn neighbor_indices(&self, index: usize) -> impl Iterator<Item = usize> {
        let (row, col, cols) = (index / self.cols, index % self.cols, self.cols);
        [
            (row > 0).then(|| index - cols),
            (row + 1 < self.rows).then(|| index + cols),
            (col > 0).then(|| index - 1),
            (col + 1 < cols).then(|| index + 1),
        ]
        .into_iter()
        .flatten()
    }

    /// The state of a block.
    ///
    /// # Panics
    ///
    /// Panics if the block is out of range.
    pub fn state(&self, block: BlockCoord) -> BlockState {
        self.states[self.index(block)]
    }

    /// Whether the block can be used as routing/expansion space at `cycle`:
    /// it is vacant and neither reserved nor anomalous.
    pub fn is_available(&self, block: BlockCoord, cycle: u64) -> bool {
        self.available_at(self.index(block), cycle)
    }

    fn available_at(&self, index: usize, cycle: u64) -> bool {
        match self.states[index] {
            BlockState::Vacant => true,
            BlockState::Logical(_) => false,
            BlockState::Reserved { until_cycle } | BlockState::Anomalous { until_cycle } => {
                cycle >= until_cycle
            }
        }
    }

    /// Releases reservations and anomalies that have expired by `cycle`.
    /// Returns at once while `cycle` is below every expiry.
    pub fn expire(&mut self, cycle: u64) {
        if cycle < self.next_expiry {
            return;
        }
        self.next_expiry = u64::MAX;
        for state in &mut self.states {
            match *state {
                BlockState::Reserved { until_cycle } | BlockState::Anomalous { until_cycle } => {
                    if cycle >= until_cycle {
                        *state = BlockState::Vacant;
                    } else {
                        self.next_expiry = self.next_expiry.min(until_cycle);
                    }
                }
                _ => {}
            }
        }
    }

    /// The earliest cycle at which [`QubitPlane::expire`] can release a
    /// block: no reservation or anomaly ends before it.
    pub(crate) fn next_expiry(&self) -> u64 {
        self.next_expiry
    }

    /// Reserves a vacant block until `until_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the block is not currently available.
    pub fn reserve(&mut self, block: BlockCoord, cycle: u64, until_cycle: u64) {
        self.reserve_index(self.index(block), cycle, until_cycle);
    }

    /// [`QubitPlane::reserve`] by flat block index.
    pub(crate) fn reserve_index(&mut self, index: usize, cycle: u64, until_cycle: u64) {
        assert!(
            self.available_at(index, cycle),
            "block {:?} is not available",
            self.coord(index)
        );
        self.states[index] = BlockState::Reserved { until_cycle };
        self.next_expiry = self.next_expiry.min(until_cycle);
    }

    /// Marks a vacant or reserved block anomalous until `until_cycle`
    /// (cosmic-ray strike on routing space).  Strikes on logical blocks are
    /// handled by code expansion instead and leave the state unchanged.
    pub fn mark_anomalous(&mut self, block: BlockCoord, until_cycle: u64) {
        let idx = self.index(block);
        match self.states[idx] {
            BlockState::Logical(_) => {}
            _ => {
                self.states[idx] = BlockState::Anomalous { until_cycle };
                self.next_expiry = self.next_expiry.min(until_cycle);
            }
        }
    }

    /// Whether a block is currently marked anomalous.
    pub fn is_anomalous(&self, block: BlockCoord, cycle: u64) -> bool {
        matches!(self.state(block), BlockState::Anomalous { until_cycle } if cycle < until_cycle)
    }

    /// Finds a lattice-surgery route between two logical qubits: a path of
    /// available blocks connecting a neighbour of `a` to a neighbour of `b`
    /// (BFS, shortest in block count).  Returns `None` when no route exists
    /// at `cycle`.
    pub fn find_route(
        &self,
        a: LogicalQubitId,
        b: LogicalQubitId,
        cycle: u64,
    ) -> Option<Vec<BlockCoord>> {
        let mut scratch = RouteScratch::default();
        self.route_into(a, b, cycle, &mut scratch)
            .then(|| scratch.path.iter().map(|&i| self.coord(i)).collect())
    }

    /// [`QubitPlane::find_route`] over flat block indices, leaving the route
    /// in `scratch.path`.  Returns whether a route exists.
    pub(crate) fn route_into(
        &self,
        a: LogicalQubitId,
        b: LogicalQubitId,
        cycle: u64,
        scratch: &mut RouteScratch,
    ) -> bool {
        scratch.path.clear();
        let (Some(start), Some(goal)) = (self.position_of(a), self.position_of(b)) else {
            return false;
        };
        let start = self.index(start);
        let RouteScratch {
            parent,
            frontier,
            path,
        } = scratch;
        parent.clear();
        parent.resize(self.states.len(), UNSEEN);
        frontier.clear();
        // BFS over available blocks, seeded with the available neighbours of a.
        for n in self.neighbor_indices(start) {
            if self.available_at(n, cycle) {
                parent[n] = n;
                frontier.push(n);
            }
        }
        let mut head = 0;
        while let Some(&current) = frontier.get(head) {
            head += 1;
            let here = self.coord(current);
            if here.row.abs_diff(goal.row) + here.col.abs_diff(goal.col) == 1 {
                path.push(current);
                let mut cursor = current;
                while parent[cursor] != cursor {
                    cursor = parent[cursor];
                    path.push(cursor);
                }
                path.reverse();
                return true;
            }
            for n in self.neighbor_indices(current) {
                if self.available_at(n, cycle) && parent[n] == UNSEEN {
                    parent[n] = current;
                    frontier.push(n);
                }
            }
        }
        false
    }

    /// The vacant blocks needed to expand a logical qubit into a 2×2 block
    /// patch (the paper's doubling policy): the right, lower and lower-right
    /// diagonal neighbours when they exist.
    pub fn expansion_blocks(&self, qubit: LogicalQubitId) -> Option<Vec<BlockCoord>> {
        let blocks = self.expansion_indices(qubit)?;
        Some(
            blocks
                .into_iter()
                .flatten()
                .map(|i| self.coord(i))
                .collect(),
        )
    }

    /// The flat indices of [`QubitPlane::expansion_blocks`], `None` where a
    /// block would lie off the plane.
    fn expansion_indices(&self, qubit: LogicalQubitId) -> Option<[Option<usize>; 3]> {
        let pos = self.position_of(qubit)?;
        Some([(0, 1), (1, 0), (1, 1)].map(|(dr, dc)| {
            let (row, col) = (pos.row + dr, pos.col + dc);
            (row < self.rows && col < self.cols).then_some(row * self.cols + col)
        }))
    }

    /// Whether the expansion blocks of `qubit` are all available at `cycle`.
    pub fn can_expand(&self, qubit: LogicalQubitId, cycle: u64) -> bool {
        match self.expansion_indices(qubit) {
            Some(blocks) => {
                blocks.iter().any(Option::is_some)
                    && blocks
                        .iter()
                        .flatten()
                        .all(|&i| self.available_at(i, cycle))
            }
            None => false,
        }
    }

    /// Reserves the expansion blocks of `qubit` until `until_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the expansion is not currently possible.
    pub fn expand(&mut self, qubit: LogicalQubitId, cycle: u64, until_cycle: u64) {
        assert!(
            self.can_expand(qubit, cycle),
            "qubit {qubit:?} cannot expand at cycle {cycle}"
        );
        let blocks = self
            .expansion_indices(qubit)
            .expect("expansion blocks exist");
        for i in blocks.into_iter().flatten() {
            self.reserve_index(i, cycle, until_cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkerboard_allocation_matches_the_paper() {
        // 11×11 blocks with odd/odd logical positions → 25 logical qubits.
        let plane = QubitPlane::checkerboard(11, 11);
        assert_eq!(plane.num_logical_qubits(), 25);
        assert_eq!(plane.rows(), 11);
        assert_eq!(plane.cols(), 11);
        for id in plane.logical_qubits() {
            let pos = plane.position_of(id).unwrap();
            assert_eq!(pos.row % 2, 1);
            assert_eq!(pos.col % 2, 1);
            assert_eq!(plane.state(pos), BlockState::Logical(id));
        }
    }

    #[test]
    fn routing_between_adjacent_logical_qubits() {
        let plane = QubitPlane::checkerboard(5, 5);
        let qubits = plane.logical_qubits();
        // qubits at (1,1), (1,3), (3,1), (3,3)
        let route = plane
            .find_route(qubits[0], qubits[1], 0)
            .expect("route exists");
        assert!(!route.is_empty());
        for block in &route {
            assert!(plane.is_available(*block, 0));
        }
    }

    #[test]
    fn reserved_blocks_block_routing_until_expiry() {
        let mut plane = QubitPlane::checkerboard(5, 5);
        let qubits = plane.logical_qubits();
        // Reserve the whole middle column and row of vacant blocks.
        for row in 0..5 {
            let b = BlockCoord::new(row, 2);
            if plane.state(b) == BlockState::Vacant {
                plane.reserve(b, 0, 100);
            }
        }
        for col in 0..5 {
            let b = BlockCoord::new(2, col);
            if plane.state(b) == BlockState::Vacant {
                plane.reserve(b, 0, 100);
            }
        }
        // q0 at (1,1), q3 at (3,3): every route must cross row 2 or column 2.
        assert!(plane.find_route(qubits[0], qubits[3], 0).is_none());
        // after expiry the route exists again
        assert!(plane.find_route(qubits[0], qubits[3], 100).is_some());
        plane.expire(100);
        assert_eq!(plane.state(BlockCoord::new(0, 2)), BlockState::Vacant);
    }

    #[test]
    fn anomalous_blocks_are_avoided() {
        let mut plane = QubitPlane::checkerboard(5, 5);
        let b = BlockCoord::new(1, 2);
        plane.mark_anomalous(b, 50);
        assert!(plane.is_anomalous(b, 10));
        assert!(!plane.is_available(b, 10));
        assert!(plane.is_available(b, 50));
        assert!(!plane.is_anomalous(b, 50));
        // logical blocks are not converted to anomalous state
        let qpos = plane.position_of(LogicalQubitId(0)).unwrap();
        plane.mark_anomalous(qpos, 50);
        assert!(matches!(plane.state(qpos), BlockState::Logical(_)));
    }

    #[test]
    fn expansion_reserves_a_two_by_two_patch() {
        let mut plane = QubitPlane::checkerboard(5, 5);
        let q = LogicalQubitId(0); // at (1,1)
        assert!(plane.can_expand(q, 0));
        let blocks = plane.expansion_blocks(q).unwrap();
        assert_eq!(blocks.len(), 3);
        plane.expand(q, 0, 200);
        for b in blocks {
            assert!(!plane.is_available(b, 0));
        }
        assert!(!plane.can_expand(q, 0), "cannot expand twice concurrently");
        assert!(
            plane.can_expand(q, 200),
            "expansion space frees after expiry"
        );
    }

    #[test]
    fn expansion_blocks_conflict_between_neighbouring_qubits() {
        let mut plane = QubitPlane::checkerboard(5, 5);
        let qubits = plane.logical_qubits();
        plane.expand(qubits[0], 0, 100);
        // q1 at (1,3): its expansion blocks (1,4),(2,3),(2,4) are distinct, so
        // it can still expand; but q0's route to q1 through (1,2)/(2,1) is
        // partially blocked.
        assert!(plane.can_expand(qubits[1], 0));
        assert!(!plane.is_available(BlockCoord::new(1, 2), 0));
    }

    #[test]
    #[should_panic(expected = "is not available")]
    fn double_reservation_panics() {
        let mut plane = QubitPlane::checkerboard(5, 5);
        let b = BlockCoord::new(0, 0);
        plane.reserve(b, 0, 10);
        plane.reserve(b, 0, 10);
    }

    #[test]
    #[should_panic(expected = "at least 3×3")]
    fn tiny_plane_is_rejected() {
        let _ = QubitPlane::checkerboard(2, 2);
    }
}
