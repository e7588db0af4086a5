use std::collections::VecDeque;
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use navft_rl::{DiscreteEnvironment, DiscreteTransition};

/// The content of one Grid World cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cell {
    /// Traversable free space.
    Free,
    /// The agent's start cell.
    Source,
    /// The goal cell (reward +1, episode ends).
    Goal,
    /// An obstacle / trap cell (reward −1, episode ends).
    Hell,
}

/// The four Grid World actions, in the order used for action indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Decrease the row index.
    MoveUp,
    /// Increase the row index.
    MoveDown,
    /// Decrease the column index.
    MoveLeft,
    /// Increase the column index.
    MoveRight,
}

impl Action {
    /// All actions in index order.
    pub const ALL: [Action; 4] =
        [Action::MoveUp, Action::MoveDown, Action::MoveLeft, Action::MoveRight];

    /// The action with index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn from_index(index: usize) -> Action {
        Action::ALL[index]
    }

    /// The `(row, column)` displacement of the action.
    pub fn delta(&self) -> (isize, isize) {
        match self {
            Action::MoveUp => (-1, 0),
            Action::MoveDown => (1, 0),
            Action::MoveLeft => (0, -1),
            Action::MoveRight => (0, 1),
        }
    }
}

/// The `n × n` Grid World navigation environment of §4.1.
///
/// Each cell is `source`, `goal`, `hell` or `free`; the agent starts at the
/// source and must reach the goal while avoiding hell cells. Rewards are +1
/// (goal), −1 (hell) and 0 (free), and both goal and hell cells terminate the
/// episode. Moving off the grid leaves the agent in place.
///
/// # Examples
///
/// ```
/// use navft_gridworld::{GridWorld, ObstacleDensity};
/// use navft_rl::DiscreteEnvironment;
///
/// let mut world = GridWorld::with_density(ObstacleDensity::Middle);
/// assert_eq!(world.num_states(), 100);
/// assert_eq!(world.num_actions(), 4);
/// let start = world.reset();
/// assert_eq!(start, world.source_state());
/// ```
#[derive(Debug, Clone)]
pub struct GridWorld {
    n: usize,
    cells: Vec<Cell>,
    source: usize,
    goal: usize,
    agent: usize,
    exploring_starts: Option<SmallRng>,
}

/// The three obstacle-density settings of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObstacleDensity {
    /// Few obstacles (Fig. 1a).
    Low,
    /// Moderate obstacles (Fig. 1b) — the setting most results are reported
    /// on.
    Middle,
    /// Dense obstacles (Fig. 1c).
    High,
}

impl ObstacleDensity {
    /// All density settings in increasing order.
    pub const ALL: [ObstacleDensity; 3] =
        [ObstacleDensity::Low, ObstacleDensity::Middle, ObstacleDensity::High];
}

impl fmt::Display for ObstacleDensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ObstacleDensity::Low => "low",
            ObstacleDensity::Middle => "middle",
            ObstacleDensity::High => "high",
        })
    }
}

impl GridWorld {
    /// Builds a world from an ASCII map.
    ///
    /// Characters: `S` source, `G` goal, `#` hell/obstacle, `.` free. All rows
    /// must have the same length as the number of rows (the grid is square).
    ///
    /// # Panics
    ///
    /// Panics if the map is not square, or does not contain exactly one
    /// source and one goal.
    pub fn from_ascii(map: &[&str]) -> GridWorld {
        let n = map.len();
        assert!(n > 1, "grid must have at least two rows");
        let mut cells = Vec::with_capacity(n * n);
        let mut source = None;
        let mut goal = None;
        for (r, row) in map.iter().enumerate() {
            assert_eq!(row.len(), n, "row {r} must have {n} columns");
            for (c, ch) in row.chars().enumerate() {
                let cell = match ch {
                    'S' => {
                        assert!(source.is_none(), "map has more than one source");
                        source = Some(r * n + c);
                        Cell::Source
                    }
                    'G' => {
                        assert!(goal.is_none(), "map has more than one goal");
                        goal = Some(r * n + c);
                        Cell::Goal
                    }
                    '#' => Cell::Hell,
                    '.' => Cell::Free,
                    other => panic!("unknown map character {other:?}"),
                };
                cells.push(cell);
            }
        }
        let source = source.expect("map must contain a source 'S'");
        let goal = goal.expect("map must contain a goal 'G'");
        GridWorld { n, cells, source, goal, agent: source, exploring_starts: None }
    }

    /// The 10×10 layout with the given obstacle density (Fig. 1a/1b/1c).
    pub fn with_density(density: ObstacleDensity) -> GridWorld {
        GridWorld::from_ascii(&crate::layouts::layout(density))
    }

    /// Enables *exploring starts* for training: every [`reset`] places the
    /// agent on a uniformly random free cell instead of the source.
    ///
    /// Exploring starts are a standard way to guarantee state-space coverage
    /// for Q-learning on sparse-reward grids; evaluation environments should
    /// not enable them (success is always measured from the source).
    ///
    /// [`reset`]: navft_rl::DiscreteEnvironment::reset
    pub fn with_exploring_starts(mut self, seed: u64) -> GridWorld {
        self.exploring_starts = Some(SmallRng::seed_from_u64(seed));
        self
    }

    /// Generates a random solvable `n × n` world with roughly
    /// `obstacle_fraction` of the free cells turned into hell cells.
    ///
    /// The source is the top-left corner and the goal the bottom-right
    /// corner; layouts are re-drawn until a path exists.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `obstacle_fraction` is not in `[0, 0.9]`.
    pub fn random<R: Rng + ?Sized>(n: usize, obstacle_fraction: f64, rng: &mut R) -> GridWorld {
        assert!(n >= 2, "grid must be at least 2x2");
        assert!((0.0..=0.9).contains(&obstacle_fraction), "obstacle fraction must be in [0, 0.9]");
        loop {
            let mut cells = vec![Cell::Free; n * n];
            for cell in cells.iter_mut() {
                if rng.gen_bool(obstacle_fraction) {
                    *cell = Cell::Hell;
                }
            }
            cells[0] = Cell::Source;
            cells[n * n - 1] = Cell::Goal;
            let world = GridWorld {
                n,
                cells,
                source: 0,
                goal: n * n - 1,
                agent: 0,
                exploring_starts: None,
            };
            if world.has_path() {
                return world;
            }
        }
    }

    /// The grid's side length.
    pub fn size(&self) -> usize {
        self.n
    }

    /// The cell at state index `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn cell(&self, state: usize) -> Cell {
        self.cells[state]
    }

    /// The state index of the source cell.
    pub fn source_state(&self) -> usize {
        self.source
    }

    /// The state index of the goal cell.
    pub fn goal_state(&self) -> usize {
        self.goal
    }

    /// Number of hell (obstacle) cells.
    pub fn obstacle_count(&self) -> usize {
        self.cells.iter().filter(|&&c| c == Cell::Hell).count()
    }

    /// Whether a hell-free path from source to goal exists (breadth-first
    /// search over free/source/goal cells).
    pub fn has_path(&self) -> bool {
        let mut visited = vec![false; self.cells.len()];
        let mut queue = VecDeque::new();
        visited[self.source] = true;
        queue.push_back(self.source);
        while let Some(state) = queue.pop_front() {
            if state == self.goal {
                return true;
            }
            let (r, c) = (state / self.n, state % self.n);
            for action in Action::ALL {
                let (dr, dc) = action.delta();
                let (nr, nc) = (r as isize + dr, c as isize + dc);
                if nr < 0 || nc < 0 || nr >= self.n as isize || nc >= self.n as isize {
                    continue;
                }
                let next = nr as usize * self.n + nc as usize;
                if !visited[next] && self.cells[next] != Cell::Hell {
                    visited[next] = true;
                    queue.push_back(next);
                }
            }
        }
        false
    }

    /// The length of the shortest hell-free path from source to goal, if one
    /// exists.
    pub fn shortest_path_len(&self) -> Option<usize> {
        let mut dist = vec![usize::MAX; self.cells.len()];
        let mut queue = VecDeque::new();
        dist[self.source] = 0;
        queue.push_back(self.source);
        while let Some(state) = queue.pop_front() {
            if state == self.goal {
                return Some(dist[state]);
            }
            let (r, c) = (state / self.n, state % self.n);
            for action in Action::ALL {
                let (dr, dc) = action.delta();
                let (nr, nc) = (r as isize + dr, c as isize + dc);
                if nr < 0 || nc < 0 || nr >= self.n as isize || nc >= self.n as isize {
                    continue;
                }
                let next = nr as usize * self.n + nc as usize;
                if dist[next] == usize::MAX && self.cells[next] != Cell::Hell {
                    dist[next] = dist[state] + 1;
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// Renders the grid as ASCII art (`S`, `G`, `#`, `.`, with the agent as
    /// `A` when it is not on the source).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.n * (self.n + 1));
        for r in 0..self.n {
            for c in 0..self.n {
                let state = r * self.n + c;
                let ch = if state == self.agent && state != self.source {
                    'A'
                } else {
                    match self.cells[state] {
                        Cell::Free => '.',
                        Cell::Source => 'S',
                        Cell::Goal => 'G',
                        Cell::Hell => '#',
                    }
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }
}

impl DiscreteEnvironment for GridWorld {
    fn num_states(&self) -> usize {
        self.n * self.n
    }

    fn num_actions(&self) -> usize {
        Action::ALL.len()
    }

    fn reset(&mut self) -> usize {
        self.agent = match self.exploring_starts.as_mut() {
            None => self.source,
            Some(rng) => {
                let free: Vec<usize> = (0..self.cells.len())
                    .filter(|&i| matches!(self.cells[i], Cell::Free | Cell::Source))
                    .collect();
                free[rng.gen_range(0..free.len())]
            }
        };
        self.agent
    }

    fn step(&mut self, action: usize) -> DiscreteTransition {
        assert!(action < self.num_actions(), "action {action} out of range");
        let (r, c) = (self.agent / self.n, self.agent % self.n);
        let (dr, dc) = Action::from_index(action).delta();
        let (nr, nc) = (r as isize + dr, c as isize + dc);
        let next = if nr < 0 || nc < 0 || nr >= self.n as isize || nc >= self.n as isize {
            self.agent
        } else {
            nr as usize * self.n + nc as usize
        };
        self.agent = next;
        let (reward, terminal, reached_goal) = match self.cells[next] {
            Cell::Goal => (1.0, true, true),
            Cell::Hell => (-1.0, true, false),
            Cell::Free | Cell::Source => (0.0, false, false),
        };
        DiscreteTransition { next_state: next, reward, terminal, reached_goal }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny() -> GridWorld {
        GridWorld::from_ascii(&["S.#", ".#.", "..G"])
    }

    #[test]
    fn ascii_parsing_locates_source_and_goal() {
        let world = tiny();
        assert_eq!(world.size(), 3);
        assert_eq!(world.source_state(), 0);
        assert_eq!(world.goal_state(), 8);
        assert_eq!(world.cell(2), Cell::Hell);
        assert_eq!(world.obstacle_count(), 2);
    }

    #[test]
    #[should_panic(expected = "must contain a source")]
    fn map_without_source_is_rejected() {
        let _ = GridWorld::from_ascii(&["..", ".G"]);
    }

    #[test]
    #[should_panic(expected = "unknown map character")]
    fn unknown_characters_are_rejected() {
        let _ = GridWorld::from_ascii(&["S?", ".G"]);
    }

    #[test]
    fn stepping_to_the_goal_terminates_with_reward() {
        let mut world = tiny();
        world.reset();
        world.step(1); // down
        world.step(1); // down
        let t = world.step(3); // right
        assert!(!t.terminal);
        let t = world.step(3); // right -> goal at (2,2)
        assert!(t.terminal);
        assert!(t.reached_goal);
        assert_eq!(t.reward, 1.0);
    }

    #[test]
    fn stepping_into_hell_fails_the_episode() {
        let mut world = tiny();
        world.reset();
        world.step(1); // down to (1,0)
        let t = world.step(3); // right into the (1,1) obstacle
        assert!(t.terminal);
        assert!(!t.reached_goal);
        assert_eq!(t.reward, -1.0);
    }

    #[test]
    fn moving_off_grid_keeps_the_agent_in_place() {
        let mut world = tiny();
        world.reset();
        let t = world.step(0); // up from the top row
        assert_eq!(t.next_state, world.source_state());
        assert!(!t.terminal);
        let t = world.step(2); // left from the left column
        assert_eq!(t.next_state, world.source_state());
    }

    #[test]
    fn path_finding_agrees_with_layout() {
        let world = tiny();
        assert!(world.has_path());
        assert_eq!(world.shortest_path_len(), Some(4));
        let blocked = GridWorld::from_ascii(&["S#", "#G"]);
        assert!(!blocked.has_path());
        assert_eq!(blocked.shortest_path_len(), None);
    }

    #[test]
    fn random_worlds_are_always_solvable() {
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..10 {
            let world = GridWorld::random(8, 0.3, &mut rng);
            assert!(world.has_path());
            assert_eq!(world.source_state(), 0);
            assert_eq!(world.goal_state(), 63);
        }
    }

    #[test]
    fn render_shows_the_agent_position() {
        let mut world = tiny();
        world.reset();
        world.step(1);
        let art = world.render();
        assert!(art.contains('A'));
        assert!(art.contains('S'));
        assert!(art.contains('G'));
    }

    #[test]
    fn action_round_trip() {
        for (i, action) in Action::ALL.iter().enumerate() {
            assert_eq!(Action::from_index(i), *action);
        }
        assert_eq!(Action::MoveRight.delta(), (0, 1));
    }

    #[test]
    fn density_display_names() {
        assert_eq!(ObstacleDensity::Low.to_string(), "low");
        assert_eq!(ObstacleDensity::ALL.len(), 3);
    }
}
