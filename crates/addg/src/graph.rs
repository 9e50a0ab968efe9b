//! The ADDG data structure.

use arrayeq_omega::{Relation, Set};
use std::collections::{BTreeMap, BTreeSet};

/// Index of a node within an [`Addg`].
pub type NodeId = usize;

/// The kind of operator an operator node applies.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OperatorKind {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division.
    Div,
    /// Unary negation.
    Neg,
    /// A call of an (uninterpreted or user-declared) function.
    Call(String),
}

impl std::fmt::Display for OperatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OperatorKind::Add => write!(f, "+"),
            OperatorKind::Sub => write!(f, "-"),
            OperatorKind::Mul => write!(f, "*"),
            OperatorKind::Div => write!(f, "/"),
            OperatorKind::Neg => write!(f, "neg"),
            OperatorKind::Call(n) => write!(f, "{n}()"),
        }
    }
}

/// A node of the ADDG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// An array variable (input, output or intermediate).
    Array {
        /// The array name.
        name: String,
    },
    /// An operator occurrence inside the right-hand side of a statement.
    Operator {
        /// The operator.
        kind: OperatorKind,
        /// Label of the statement this occurrence belongs to.
        statement: String,
        /// Operand nodes, in operand-position order.
        operands: Vec<NodeId>,
    },
    /// An array read occurrence (a leaf of a statement's operator tree).
    Access {
        /// The array being read.
        array: String,
        /// Label of the statement this read belongs to.
        statement: String,
        /// The paper's dependency mapping `M_{def,operand}`: from the
        /// elements defined by the statement to the elements read by this
        /// occurrence.
        mapping: Relation,
        /// The index expressions of the access, pretty-printed (for error
        /// diagnostics).
        index_text: String,
    },
    /// A literal constant in a right-hand side.
    Const {
        /// The value.
        value: i64,
        /// Label of the statement this constant belongs to.
        statement: String,
    },
}

/// One definition of an array: the statement that assigns (part of) it.
#[derive(Debug, Clone)]
pub struct Definition {
    /// Label of the defining statement.
    pub statement: String,
    /// The set of elements this statement defines.
    pub elements: Set,
    /// Root node of the statement's right-hand-side operator tree.
    pub root: NodeId,
    /// Pretty-printed left-hand side (for diagnostics).
    pub lhs_text: String,
    /// Number of dimensions of the defined array elements.
    pub element_dims: usize,
}

/// An Array Data Dependence Graph.
#[derive(Debug, Clone)]
pub struct Addg {
    /// Name of the program function the graph was extracted from.
    pub program_name: String,
    nodes: Vec<Node>,
    array_ids: BTreeMap<String, NodeId>,
    definitions: BTreeMap<String, Vec<Definition>>,
    inputs: Vec<String>,
    outputs: Vec<String>,
    intermediates: Vec<String>,
    /// The arrays on a dependence cycle, fixed once the graph is complete.
    recurrent: BTreeSet<String>,
    /// The strongly connected components of the array read graph,
    /// dependency-first, fixed once the graph is complete.
    components: Vec<Vec<String>>,
}

impl Addg {
    /// Creates an empty graph (used by the extractor).
    pub(crate) fn new(program_name: String) -> Self {
        Addg {
            program_name,
            nodes: Vec::new(),
            array_ids: BTreeMap::new(),
            definitions: BTreeMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            intermediates: Vec::new(),
            recurrent: BTreeSet::new(),
            components: Vec::new(),
        }
    }

    /// Adds a node and returns its id.
    pub(crate) fn push_node(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        id
    }

    /// Returns (creating if necessary) the node of an array variable.
    pub(crate) fn array_node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.array_ids.get(name) {
            return id;
        }
        let id = self.push_node(Node::Array {
            name: name.to_owned(),
        });
        self.array_ids.insert(name.to_owned(), id);
        id
    }

    /// Registers a definition of an array.
    pub(crate) fn add_definition(&mut self, array: &str, def: Definition) {
        self.array_node(array);
        self.definitions
            .entry(array.to_owned())
            .or_default()
            .push(def);
    }

    /// Sets the role lists (called once by the extractor).
    pub(crate) fn set_roles(
        &mut self,
        inputs: Vec<String>,
        outputs: Vec<String>,
        intermediates: Vec<String>,
    ) {
        self.inputs = inputs;
        self.outputs = outputs;
        self.intermediates = intermediates;
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate()
    }

    /// The input arrays (leaf nodes of the ADDG).
    pub fn input_arrays(&self) -> &[String] {
        &self.inputs
    }

    /// The output arrays (root nodes of the ADDG).
    pub fn output_arrays(&self) -> &[String] {
        &self.outputs
    }

    /// The intermediate arrays.
    pub fn intermediate_arrays(&self) -> &[String] {
        &self.intermediates
    }

    /// Whether the array is an input of the function.
    pub fn is_input(&self, array: &str) -> bool {
        self.inputs.iter().any(|a| a == array)
    }

    /// Whether the array is an output of the function.
    pub fn is_output(&self, array: &str) -> bool {
        self.outputs.iter().any(|a| a == array)
    }

    /// The definitions (assigning statements) of an array, in textual order.
    /// Input arrays have no definitions.
    pub fn definitions(&self, array: &str) -> &[Definition] {
        self.definitions
            .get(array)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The union of all elements of `array` defined by the program, or `None`
    /// if the array has no definitions.
    pub fn defined_elements(&self, array: &str) -> Option<Set> {
        let defs = self.definitions(array);
        let mut acc: Option<Set> = None;
        for d in defs {
            acc = Some(match acc {
                None => d.elements.clone(),
                Some(s) => s.union(&d.elements).ok()?,
            });
        }
        acc
    }

    /// Total number of assignment statements represented in the graph.
    pub fn statement_count(&self) -> usize {
        self.definitions.values().map(|v| v.len()).sum()
    }

    /// The arrays read (transitively through operators) by the statement tree
    /// rooted at `root`.
    pub fn arrays_read_from(&self, root: NodeId) -> Vec<String> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            match &self.nodes[id] {
                Node::Access { array, .. } => {
                    if !out.contains(array) {
                        out.push(array.clone());
                    }
                }
                Node::Operator { operands, .. } => stack.extend(operands.iter().copied()),
                Node::Array { .. } | Node::Const { .. } => {}
            }
        }
        out
    }

    /// The array-level dependence edges: `(defined array, read array)` pairs,
    /// one per (definition, operand array).
    pub fn array_dependences(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (array, defs) in &self.definitions {
            for d in defs {
                for read in self.arrays_read_from(d.root) {
                    let pair = (array.clone(), read);
                    if !out.contains(&pair) {
                        out.push(pair);
                    }
                }
            }
        }
        out
    }

    /// Records the [`components`](Addg::components) of the array read graph
    /// and the recurrence arrays (called once by the extractor, after the
    /// last definition), by one Tarjan pass over the graph.
    pub(crate) fn mark_components(&mut self) {
        let mut names: BTreeSet<&str> = self.array_ids.keys().map(String::as_str).collect();
        names.extend(self.inputs.iter().map(String::as_str));
        let names: Vec<&str> = names.into_iter().collect();
        let reads: Vec<Vec<usize>> = names
            .iter()
            .map(|name| {
                let mut read: Vec<usize> = self
                    .definitions(name)
                    .iter()
                    .flat_map(|d| self.arrays_read_from(d.root))
                    .map(|a| {
                        names
                            .binary_search(&a.as_str())
                            .expect("a read array has a node")
                    })
                    .collect();
                read.sort_unstable();
                read.dedup();
                read
            })
            .collect();
        let mut recurrent = BTreeSet::new();
        let mut components = Vec::new();
        for mut component in strongly_connected(&reads) {
            component.sort_unstable();
            let cyclic = component.len() > 1 || reads[component[0]].contains(&component[0]);
            let component: Vec<String> = component.iter().map(|&a| names[a].to_owned()).collect();
            if cyclic {
                recurrent.extend(component.iter().cloned());
            }
            components.push(component);
        }
        self.recurrent = recurrent;
        self.components = components;
    }

    /// The strongly connected components of the array read graph, where an
    /// edge leads from each defined array to each array its definitions
    /// read, in dependency-first order: every array that a component's
    /// definitions read lies in that component or an earlier one.  Every
    /// array of the graph, inputs included, is in exactly one component,
    /// and a component lists its arrays in name order.  Computed once, when
    /// the graph is extracted.
    pub(crate) fn components(&self) -> &[Vec<String>] {
        &self.components
    }

    /// The arrays involved in data-flow recurrences: the arrays of every
    /// strongly connected component of the array read graph with more than
    /// one array, and every array that reads itself.  These are exactly the
    /// arrays on a cycle of the array-level dependence graph, self-loops
    /// included.  The paper handles them with the transitive closure of the
    /// cycle's total dependence mapping; this checker discharges them
    /// coinductively instead, assuming an obligation on a cycle while it is
    /// being proven.  Computed once, by the same Tarjan pass as the
    /// components, when the graph is extracted.
    pub fn recurrence_arrays(&self) -> &BTreeSet<String> {
        &self.recurrent
    }

    /// Whether `array` is one of the [`recurrence_arrays`](Addg::recurrence_arrays).
    pub fn is_recurrent(&self, array: &str) -> bool {
        self.recurrent.contains(array)
    }

    /// Whether the ADDG contains any recurrence (computed once, when the
    /// graph is extracted).
    pub fn has_recurrence(&self) -> bool {
        !self.recurrent.is_empty()
    }

    /// Sum over all statements of the number of paths from the defined array
    /// to array-read leaves — the "number of data dependence paths" measure
    /// used when relating checker runtime to ADDG size.
    pub fn leaf_path_count(&self) -> usize {
        let mut total = 0;
        for defs in self.definitions.values() {
            for d in defs {
                total += self.count_leaves(d.root);
            }
        }
        total
    }

    fn count_leaves(&self, id: NodeId) -> usize {
        match &self.nodes[id] {
            Node::Access { .. } => 1,
            Node::Const { .. } | Node::Array { .. } => 0,
            Node::Operator { operands, .. } => operands.iter().map(|&o| self.count_leaves(o)).sum(),
        }
    }
}

/// Tarjan's algorithm over the graph with successor lists `succ`, with an
/// explicit stack so that long dependence chains cannot overflow the call
/// stack.  A component is emitted once every component it reaches has
/// been, so the result is dependency-first when an edge points at what its
/// source reads.
fn strongly_connected(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; succ.len()];
    let mut low = vec![0; succ.len()];
    let mut on_stack = vec![false; succ.len()];
    let mut stack = Vec::new();
    // The depth-first path: each vertex with the position of its next
    // successor to visit.
    let mut path: Vec<(usize, usize)> = Vec::new();
    let mut components = Vec::new();
    let mut next_index = 0;
    for root in 0..succ.len() {
        if index[root] != UNSEEN {
            continue;
        }
        path.push((root, 0));
        while let Some(top) = path.last_mut() {
            let v = top.0;
            if index[v] == UNSEEN {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                on_stack[v] = true;
                stack.push(v);
            }
            if let Some(&w) = succ[v].get(top.1) {
                top.1 += 1;
                if index[w] == UNSEEN {
                    path.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            path.pop();
            if let Some(&(parent, _)) = path.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut component = Vec::new();
                loop {
                    let w = stack.pop().expect("v is on the stack");
                    on_stack[w] = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                components.push(component);
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract;
    use arrayeq_lang::corpus::{FIG1_A, FIG1_B, KERNEL_RECURRENCE};
    use arrayeq_lang::parser::parse_program;

    fn addg(src: &str) -> Addg {
        extract(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn fig1a_structure() {
        let g = addg(FIG1_A);
        assert_eq!(g.output_arrays(), &["C".to_string()]);
        assert_eq!(
            g.input_arrays(),
            &["A".to_string(), "B".to_string()],
            "A and B are only read"
        );
        assert_eq!(
            g.intermediate_arrays(),
            &["tmp".to_string(), "buf".to_string()]
        );
        assert_eq!(g.statement_count(), 3);
        // 4 leaf paths from C: via tmp to B (2) and via buf to A (2) — at the
        // statement level each statement has 2 leaves.
        assert_eq!(g.leaf_path_count(), 6);
        assert!(!g.has_recurrence());
        let deps = g.array_dependences();
        assert!(deps.contains(&("C".to_string(), "tmp".to_string())));
        assert!(deps.contains(&("tmp".to_string(), "B".to_string())));
        assert!(deps.contains(&("buf".to_string(), "A".to_string())));
    }

    #[test]
    fn fig1b_has_split_output_definitions() {
        let g = addg(FIG1_B);
        // C is defined by t3 and t4.
        assert_eq!(g.definitions("C").len(), 2);
        let total = g.defined_elements("C").unwrap();
        // Together they define exactly [0, 1024).
        let expected = arrayeq_omega::Set::parse("{ [k] : 0 <= k < 1024 }").unwrap();
        assert!(total.is_equal(&expected).unwrap());
        // And each alone does not.
        for d in g.definitions("C") {
            assert!(!d.elements.is_equal(&expected).unwrap());
        }
    }

    fn names(arrays: &[&str]) -> BTreeSet<String> {
        arrays.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn recurrence_is_detected() {
        let g = addg(KERNEL_RECURRENCE);
        assert!(g.has_recurrence());
        assert_eq!(g.recurrence_arrays(), &names(&["Y"]));
        assert!(g.is_recurrent("Y"));
        assert!(!g.is_recurrent("X"));
    }

    /// `T` and `Y` feed each other, so both are on the cycle; `Z` only reads
    /// `Y` and is not.
    const TWO_ARRAY_CYCLE: &str = r#"
#define N 64
pingpong(int X[], int Z[])
{
    int k, T[N], Y[N];
r0: Y[0] = X[0] + 0;
r1: T[0] = X[0] + 1;
    for (k = 1; k < N; k++) {
r2:     T[k] = Y[k-1] + X[k];
r3:     Y[k] = T[k] + 1;
    }
    for (k = 0; k < N; k++)
r4:     Z[k] = Y[k] + X[k];
}
"#;

    #[test]
    fn a_two_array_cycle_marks_both_arrays_and_not_their_readers() {
        let g = addg(TWO_ARRAY_CYCLE);
        assert_eq!(g.recurrence_arrays(), &names(&["T", "Y"]));
        assert!(g.is_recurrent("T") && g.is_recurrent("Y"));
        assert!(!g.is_recurrent("Z"), "Z only reads a recurrent array");
        assert!(!g.is_recurrent("X"), "inputs are never recurrent");
    }

    /// `P`, `Q` and `R` feed each other in a ring (`P` reads `R`, `Q` reads
    /// `P`, `R` reads `Q`); `Z` reads `P` from outside the ring.
    const THREE_ARRAY_CYCLE: &str = r#"
#define N 64
ring(int X[], int Z[])
{
    int k, P[N], Q[N], R[N];
a0: P[0] = X[0] + 0;
a1: Q[0] = X[0] + 1;
a2: R[0] = X[0] + 2;
    for (k = 1; k < N; k++) {
a3:     P[k] = R[k-1] + X[k];
a4:     Q[k] = P[k] + 1;
a5:     R[k] = Q[k] + 2;
    }
    for (k = 0; k < N; k++)
a6:     Z[k] = P[k] + X[k];
}
"#;

    #[test]
    fn a_three_array_cycle_is_one_component_before_its_reader() {
        let g = addg(THREE_ARRAY_CYCLE);
        assert_eq!(g.recurrence_arrays(), &names(&["P", "Q", "R"]));
        assert!(!g.is_recurrent("Z"), "Z only reads the ring");
        let components: Vec<Vec<&str>> = g
            .components()
            .iter()
            .map(|c| c.iter().map(String::as_str).collect())
            .collect();
        assert_eq!(components, [vec!["X"], vec!["P", "Q", "R"], vec!["Z"]]);
        // Dependency-first: each component reads only itself and earlier
        // components.
        let position = |array: &str| {
            let found = g
                .components()
                .iter()
                .position(|c| c.iter().any(|a| a == array));
            found.unwrap_or_else(|| panic!("{array} is in no component"))
        };
        for (defined, read) in g.array_dependences() {
            assert!(
                position(&read) <= position(&defined),
                "{defined} reads {read}"
            );
        }
    }

    #[test]
    fn fig1a_has_no_recurrence_and_a_clone_keeps_the_set() {
        let g = addg(FIG1_A);
        assert!(g.recurrence_arrays().is_empty());
        assert!(!g.has_recurrence());
        let original = addg(TWO_ARRAY_CYCLE);
        let copy = original.clone();
        assert_eq!(copy.recurrence_arrays(), original.recurrence_arrays());
        assert_eq!(copy.recurrence_arrays(), &names(&["T", "Y"]));
        assert!(copy.has_recurrence());
    }

    #[test]
    fn operator_kind_display() {
        assert_eq!(OperatorKind::Add.to_string(), "+");
        assert_eq!(OperatorKind::Call("absd".into()).to_string(), "absd()");
    }
}
