package chl

// MatrixBlockCells exposes the router's /matrix block budget to the
// external tests, which size their matrices to span several blocks.
const MatrixBlockCells = matrixBlockCells
